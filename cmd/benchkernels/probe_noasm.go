//go:build !amd64 || purego

package main

func gatherGroups(sum *[8]float32, table []float32, idx *[32]int32, woff []int32) {
	gatherGroupsGo(sum, table, idx, woff)
}

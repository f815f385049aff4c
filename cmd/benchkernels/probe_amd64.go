//go:build amd64 && !purego

package main

import "github.com/appmult/retrain/internal/tensor"

// gatherGroupsAVX2 runs n groups (see gatherProbe): for each, four
// VGATHERDPS of idx[0:32] off table+woff[g], added into four
// accumulators whose lane-wise total lands in sum[0:8].
//
//go:noescape
func gatherGroupsAVX2(sum *float32, table *float32, idx *int32, woff *int32, n int64)

func gatherGroups(sum *[8]float32, table []float32, idx *[32]int32, woff []int32) {
	if !tensor.HasAVX2 || len(woff) == 0 {
		gatherGroupsGo(sum, table, idx, woff)
		return
	}
	gatherGroupsAVX2(&sum[0], &table[0], &idx[0], &woff[0], int64(len(woff)))
}

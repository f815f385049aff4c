//go:build !amd64 || purego

package tensor

// HasAVX2 is false on non-amd64 hosts and under the purego build tag:
// the assembly is compiled out and every kernel runs its pure-Go twin.
var HasAVX2 = false

// addBlocks leaves every element to addInto's Go loop.
func addBlocks(dst, src []float32) int { return 0 }

// finiteBlocks leaves every element to AllFinite's Go loop.
func finiteBlocks(x []float32) (int, bool) { return 0, true }

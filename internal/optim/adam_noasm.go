//go:build !amd64 || purego

package optim

// adamBlocks leaves every element to adamTail.
func adamBlocks(val, grad []float32, m, v []float64, c *adamConsts) int { return 0 }

//go:build !amd64 || purego

package quant

// quantizeBlocks leaves every element to QuantizeInto's Go loop.
func (p Params) quantizeBlocks(q []uint8, clip []bool, data []float32) int { return 0 }

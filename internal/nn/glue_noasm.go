//go:build !amd64 || purego

package nn

// The glue passes' kernels are compiled out: every pass runs its Go
// loop whole.

func (t *maxPoolRun) pool2x2Blocks(lo, hi int) int { return 0 }

func reluBlocks(dst []float32, keep []uint8, src []float32) int { return 0 }

func reluMaskBlocks(dst, src []float32, keep []uint8) int { return 0 }

func bnNormalizeBlocks(out, xhat, x []float32, n, hw, stride int, k *[4]float64) int { return 0 }

func bnInputGradBlocks(dx, dy, xhat []float32, n, hw, stride int, k *[4]float64) int { return 0 }

func sumLanes(sums *[bnLanes]float64, x []float32, n, hw, stride int) bool { return false }

func sqDevLanes(sq *[bnLanes]float64, x []float32, mean *[bnLanes]float64, n, hw, stride int) bool {
	return false
}

func gradSumsLanes(sumDy, sumDyXhat *[bnLanes]float64, dy, xhat []float32, n, hw, stride int) bool {
	return false
}

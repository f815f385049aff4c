//go:build !amd64 || purego

package nn

// Portable fallback (non-amd64 hosts and the purego build tag): the
// arith tier's SIMD kernels are unavailable, so dispatch never selects
// the tier and the stubs below are unreachable.

func gemmArithAccumAVX2(acc *int32, xt *uint8, wr *uint8, cw *uint16, xm *uint16, nR, nK, nT, cad int64) {
	panic("nn: arith kernel called without assembly support")
}

func gemmArithPairAVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad int64) {
	panic("nn: arith kernel called without assembly support")
}

func gemmArithPair4AVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad, stride int64) {
	panic("nn: arith kernel called without assembly support")
}

// loadTileBlocks has no SIMD pass to run: loadTile's Go loop loads the
// whole tile.
func loadTileBlocks(xt []uint8, sumX []int64, xT []uint8, rows, lo, nR, kb, nK int) int { return 0 }

//go:build amd64 && !purego

package nn

// Go-side contracts for the AVX2 arith-tier kernels in
// gemm_arith_amd64.s; hasGemmAsm (tiers.go) gates dispatching to them.

// gemmArithAccumAVX2 is the word-path arith kernel: for one output
// channel it accumulates, over r in [0, nR&^31),
//
//	acc[r] += sum_{i<nK} sum_{t<nT} cw[wr[i]*nT+t] * (xt[i*nR+r] & xm[t])
//
// xt is the (nK x nR) transposed operand tile (column stride nR), cw
// the per-level coefficient rows, xm the nT x-operand masks. cad is the
// 16-bit lane budget: consecutive k-steps accumulated packed before
// widening to int32 (caller guarantees cad*stripMax <= 65535). nR is a
// multiple of 32: the caller pads the tile with zero rows.
//
//go:noescape
func gemmArithAccumAVX2(acc *int32, xt *uint8, wr *uint8, cw *uint16, xm *uint16, nR, nK, nT, cad int64)

// gemmArithPairAVX2 is the madd-path arith kernel: two k-steps per
// VPMADDUBSW. For each pair p of tile columns (2p, 2p+1) it adds
//
//	acc[r] += sum_t cwp[(p*nT+t)*2]*(xt[2p*nR+r] & xm_t)
//	        + sum_t cwp[(p*nT+t)*2+1]*(xt[(2p+1)*nR+r] & xm_t)
//
// cwp is the per-call coefficient stream of (cw(w_{2p}), cw(w_{2p+1}))
// byte pairs (each <= 127: VPMADDUBSW's signed operand), xm holds each
// strip mask duplicated in both bytes of a word. cad counts k-pairs per
// uint16 lane before widening (caller guarantees cad*2*stripMax <=
// 65535 and 2*termMax <= 32767, so neither the saturating madd nor the
// lane accumulation can clip). For odd k the caller zero-pads a virtual
// last column; a zero coefficient makes the extra step a no-op. As for
// gemmArithAccumAVX2, nR is a multiple of 32.
//
//go:noescape
func gemmArithPairAVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad int64)

// gemmArithPair4AVX2 is gemmArithPairAVX2 for four coefficient streams
// sharing one operand tile: stream s (s < 4) reads its coefficients from
// cwp + s*stride and adds into the row acc + s*nR, under the same gates
// and lane budget. Each k-pair's columns are loaded, interleaved and
// masked once for all four.
//
//go:noescape
func gemmArithPair4AVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad, stride int64)

// loadTileAVX2 is loadTile's pass over the rows [0, nR&^31) of an
// (nK x nR) tile of row stride ld, 1 <= nK <= fwdKTile: it copies each
// column's run src[i*rows:][:nR&^31] to xt[i*ld:] and adds the levels
// into sumX[:nR&^31], through uint16 row sums per 32-row chunk.
//
//go:noescape
func loadTileAVX2(xt *uint8, sumX *int64, src *uint8, rows, nR, ld, nK int64)

// loadTileBlocks runs loadTile's SIMD pass and returns how many leading
// tile rows it loaded and summed: nR rounded down to the 32-row chunk,
// or none without AVX2.
func loadTileBlocks(xt []uint8, sumX []int64, xT []uint8, rows, lo, nR, ld, kb, nK int) int {
	n := nR &^ (arithLanes - 1)
	if !hasGemmAsm || n == 0 {
		return 0
	}
	_, _, _ = xt[(nK-1)*ld+n-1], sumX[n-1], xT[(kb+nK-1)*rows+lo+n-1]
	loadTileAVX2(&xt[0], &sumX[0], &xT[kb*rows+lo], int64(rows), int64(nR), int64(ld), int64(nK))
	return n
}

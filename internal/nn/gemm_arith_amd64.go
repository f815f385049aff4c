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
// widening to int32 (caller guarantees cad*stripMax <= 65535). Rows
// beyond nR&^31 are untouched (caller's scalar tail).
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
// last column; a zero coefficient makes the extra step a no-op.
//
//go:noescape
func gemmArithPairAVX2(acc *int32, xt *uint8, cwp *uint8, xm *uint16, nR, nKp, nT, cad int64)

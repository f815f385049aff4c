//go:build amd64 && !purego

package nn

// Go-side contracts for the AVX2 backward-tier kernels in
// gemm_bwd_amd64.s (see kernels_backward.go for the dispatch and the
// bit-exactness argument). All of them are gated on the same hasGemmAsm
// detection as the forward arith kernels and preserve the reference
// accumulation orders exactly: SIMD lanes always map to independent
// destinations (output channels for dW, rows for dX), never to summation
// terms, and every float operation is a separately rounded VMULPS /
// VADDPS / VSUBPS — no FMA contraction.

// levelF32[x] = float32(x): the dW kernels broadcast an operand level
// as a float straight from this table (two loads, no shuffle-port
// convert sequence).
var levelF32 = func() (t [256]float32) {
	for i := range t {
		t[i] = float32(i)
	}
	return t
}()

// bwdAffineDWAVX2 accumulates, for the two k columns x0 and x1 (rows
// operand levels each) and eight output channels,
//
//	out0[l] = sum_{r<rows} dyR[r*outC+l] * ((a0[l]*x0[r] + b0[l]) - zx)
//
// and out1 likewise from (x1, a1, b1), r ascending, l in [0, 8). The
// caller offsets dyR, the coefficient rows and out to the first of the
// eight channels; rows must be positive. Entries are stored, not
// accumulated.
//
//go:noescape
func bwdAffineDWAVX2(out0, out1 *float32, x0, x1 *uint8, dyR *float32, a0, b0, a1, b1 *float32, zx float32, rows, outC int64)

// bwdGatherDWAVX2 is the general-table counterpart: the parenthesized
// term is gwPad[woff0[l] + x0[r]] fetched by VGATHERDPS, with
// woff0[l] = wq[oc+l][i]*padStride precomputed by the caller.
//
//go:noescape
func bwdGatherDWAVX2(out0, out1 *float32, x0, x1 *uint8, dyR *float32, woff0, woff1 *int32, gwPad *float32, zx float32, rows, outC int64)

// bwdDWTableAVX2 builds one column's level table for eight output
// channels, tab[x*8+l] = gwPad[woff[l]+x] - zx for x in [0, n), where
// woff[l] = wq[oc+l][i]*padStride and n is a positive multiple of 8:
// the term bwdGatherDWAVX2 gathers, computed once per level instead of
// once per row. Entries at and above n are left as they are.
//
//go:noescape
func bwdDWTableAVX2(tab *float32, woff *int32, gwPad *float32, zx float32, n int64)

// bwdTableDWAVX2 is bwdGatherDWAVX2 for four columns x0..x3, with the
// parenthesized term read from their level tables t0..t3 (see
// bwdDWTableAVX2), which must hold all 256 levels:
//
//	outj[l] = sum_{r<rows} dyR[r*outC+l] * tj[xj[r]*8+l]
//
// r ascending, l in [0, 8); rows must be positive.
//
//go:noescape
func bwdTableDWAVX2(out0, out1, out2, out3 *float32, x0, x1, x2, x3 *uint8, dyR, t0, t1, t2, t3 *float32, rows, outC int64)

// bwdAffineDXAVX2 accumulates, for one k column,
//
//	dxrow[r] = sum_{oc<outC} gsT[oc*rows+r] * ((aCol[oc]*float32(xcol[r]) + bCol[oc]) - zwCol[oc])
//
// over r in [0, rows32) in chunks of 32 rows, oc ascending per lane; a
// chunk's levels are converted to float once, not once per oc. gsT
// holds the pre-scaled gradients dy[r][oc]*s_w[oc]; rows32 is rows&^31
// and the caller evaluates the tail rows in Go. dxrow entries are
// stored, not accumulated.
//
//go:noescape
func bwdAffineDXAVX2(dxrow *float32, xcol *uint8, gsT *float32, aCol, bCol, zwCol *float32, rows32, rows, outC int64)

// bwdGatherDXAVX2 is the general-table counterpart: the parenthesized
// term is gxPad[woffCol[oc] + xcol[r]] fetched by VGATHERDPS — four
// independent gathers per oc off the chunk's hoisted index vectors —
// with woffCol[oc] = wq[oc][i]*padStride precomputed by the caller.
//
//go:noescape
func bwdGatherDXAVX2(dxrow *float32, xcol *uint8, gsT *float32, woffCol *int32, gxPad *float32, zwCol *float32, rows32, rows, outC int64)

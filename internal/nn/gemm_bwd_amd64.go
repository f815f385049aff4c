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

// bwdGatherDWAVX2 accumulates, for the two k columns x0 and x1 (rows
// operand levels each) and eight output channels,
//
//	out0[l] = sum_{r<rows} dyR[r*outC+l] * (gwPad[woff0[l] + x0[r]] - zx)
//
// and out1 likewise from (x1, woff1), r ascending, l in [0, 8), the
// table entry fetched by VGATHERDPS, with woff0[l] = wq[oc+l][i]*padStride
// precomputed by the caller. The caller offsets dyR, woff0/woff1 and
// out to the first of the eight channels; rows must be positive.
// Entries are stored, not accumulated.
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

// bwdUniformDWAVX2 is bwdTableDWAVX2 on one level table shared by the
// four columns and alike in its lanes, given as one float per level:
//
//	outj[l] = sum_{r<rows} dyR[r*outC+l] * lev[xj[r]]
//
// r ascending, l in [0, 8); lev must hold all 256 levels and rows must
// be positive.
//
//go:noescape
func bwdUniformDWAVX2(out0, out1, out2, out3 *float32, x0, x1, x2, x3 *uint8, dyR, lev *float32, rows, outC int64)

// bwdConstDXAVX2 accumulates, for two k columns,
//
//	dx0[r] = sum_{oc<outC} gsT[oc*rows+r] * v0[oc*k]
//
// and dx1 likewise from v1, over r in [0, rows32) in chunks of 32 rows,
// oc ascending per lane, from +0: a float GEMM, one separately rounded
// VMULPS and VADDPS per term. A chunk's gradients are loaded once per oc
// for both columns. gsT holds the pre-scaled gradients dy[r][oc]*s_w
// and vj the column's operands fl(fl(A*0) + B) - zw, a column of an
// (outC x k) matrix (see bwdDXAffine); rows32 is rows&^31 and the caller
// evaluates the tail rows in Go. dx entries are stored, not accumulated.
//
//go:noescape
func bwdConstDXAVX2(dx0, dx1 *float32, gsT *float32, v0, v1 *float32, rows32, rows, outC, k int64)

// bwdGatherDXAVX2 accumulates, for one k column,
//
//	dxrow[r] = sum_{oc<outC} gsT[oc*rows+r] * (gxPad[woffCol[oc] + xcol[r]] - zw)
//
// over r in [0, rows32) in chunks of 32 rows, oc ascending per lane, the
// table entry fetched by VGATHERDPS — four independent gathers per oc
// off the chunk's hoisted index vectors — with woffCol[oc] =
// wq[oc][i]*padStride precomputed by the caller. rows32 is rows&^31 and
// the caller evaluates the tail rows in Go; dxrow entries are stored,
// not accumulated.
//
//go:noescape
func bwdGatherDXAVX2(dxrow *float32, xcol *uint8, gsT *float32, woffCol *int32, gxPad *float32, zw float32, rows32, rows, outC int64)

package nn

import (
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// Tiered backward dispatch, mirroring the forward architecture: the
// dW and dX sweeps each run on the best kernel the op's gradient-table
// structure admits.
//
//   - affine: every row of the table is an exact affine function of the
//     opposing level (verified bitwise at ensurePadded, see
//     gradient.RowAffinity), so the LUT gather collapses to two dense
//     float ops — a multiply and an add — evaluated 8/32 lanes at a
//     time in AVX2 asm (gemm_bwd_amd64.s) with a pure-Go fallback.
//     STE tables take it on both sweeps; cvste's DX table qualifies
//     while its DW table does not ("mixed").
//   - fused: general tables (smoothdiff/stochastic/rawdiff) keep the
//     gather but run it as an AVX2 VGATHERDPS kernel over the padded
//     rows, or as the PR 2 column-pair Go loops without asm. The gsum
//     column sums and the per-channel dy scaling (gsT) fall out of the
//     dW sweep's single dyT scan instead of their own passes.
//
// Bit-exactness with BackwardGEMMRef is preserved by construction on
// every tier: per-destination accumulation order is unchanged
// (ascending r for dW, ascending oc for dX), the affine substitution
// reproduces the table entry bit for bit (that is what the verifier
// proves), and the dense kernels may include the g == 0 terms the
// reference skips because a zero gradient contributes ±0 and a float32
// accumulator that starts at +0 can never change bits by adding ±0.
// The kernels use no FMA: the affine reconstruction is an explicitly
// rounded multiply then add (VMULPS + VADDPS, float32(a*x) + b in Go),
// matching the verifier's expression exactly.

// Backward dispatch tier names, in descending preference order; also
// the backward `path` label values of nn_kernel_dispatch_total (the
// reference kernel reports "ref").
const (
	// BwdPathAffine: both gradient tables verified row-affine; both
	// sweeps run gather-free.
	BwdPathAffine = "affine"
	// BwdPathMixed: exactly one table is row-affine; that sweep runs
	// gather-free, the other on the fused gather kernel.
	BwdPathMixed = "mixed"
	// BwdPathFused: general tables; both sweeps gather, fused with the
	// gsum/gsT production (the relabeled PR 2 "blocked" tier).
	BwdPathFused = "fused"
	// BwdPathSmall: the reference-shaped path for sparse upstream
	// gradients (see sparseGrad and backwardSmall).
	BwdPathSmall = "small"
)

// backwardTierOverride forces BackwardGEMM onto a specific dispatch
// tier when the op supports it, symmetric to forwardTierOverride.
// Write it only from single-threaded setup code.
var backwardTierOverride = ""

// SetBackwardTierOverride forces BackwardGEMM onto the given dispatch
// tier (one of the BwdPath* constants) whenever an op supports it,
// falling back to automatic selection when it does not (an op without
// affine tables cannot provide "affine"; any op can provide "fused" or
// "small"). The empty string restores automatic selection. A
// test/benchmark hook like SetForwardTierOverride: call it only from
// single-threaded setup code, never during concurrent GEMMs.
func SetBackwardTierOverride(tier string) { backwardTierOverride = tier }

// BackwardPath reports which dispatch tier BackwardGEMM will use for
// the upstream gradient dy: a sparse dy takes the small path (see
// sparseGrad), otherwise the choice depends only on the op's verified
// table structure. The benchmark harness prints it next to each
// backward measurement.
func (op *Op) BackwardPath(dy []float32) string {
	op.ensurePadded()
	return op.backwardPath(dy)
}

func (op *Op) backwardPath(dy []float32) string {
	dwA, dxA := op.dwAff != nil, op.dxAff != nil
	switch backwardTierOverride {
	case BwdPathAffine:
		if dwA && dxA {
			return BwdPathAffine
		}
	case BwdPathMixed:
		if dwA != dxA {
			return BwdPathMixed
		}
	case BwdPathFused:
		return BwdPathFused
	case BwdPathSmall:
		return BwdPathSmall
	}
	if sparseGrad(dy) {
		return BwdPathSmall
	}
	switch {
	case dwA && dxA:
		return BwdPathAffine
	case dwA || dxA:
		return BwdPathMixed
	default:
		return BwdPathFused
	}
}

// backwardBig is the shared driver of the affine/mixed/fused tiers:
// transpose setup, the dW sweep (with gsum and gsT folded in), the dX
// sweep, and the (optionally clip-masked) transpose back to row-major.
func (op *Op) backwardBig(path string, s *KernelScratch, dw, dxcols, gsum, dy []float32, xq, wq []uint8,
	xClip, wClip []bool, rows, outC, k int, pw []quant.Params, px quant.Params) {

	s.swc = grow(s.swc, outC)
	s.zwc = grow(s.zwc, outC)
	for oc := 0; oc < outC; oc++ {
		p := pwAt(pw, oc)
		s.swc[oc] = p.Scale
		s.zwc[oc] = float32(p.Zero)
	}

	// Operand and upstream-gradient transposes: xT and dxT are
	// (k x rows) so the backward inner loops scan rows contiguously;
	// dyT is (outC x rows) for the same reason.
	s.xT = grow(s.xT, k*rows)
	s.transposeU8(s.xT, xq, rows, k)
	s.dyT = grow(s.dyT, outC*rows)
	s.transposeF32(s.dyT, dy, rows, outC)
	s.dxT = grow(s.dxT, k*rows)
	s.gsT = grow(s.gsT, outC*rows)

	// A forced fused tier runs both sweeps on the general kernels even
	// when affine coefficients exist; otherwise each sweep independently
	// takes the affine kernel its table qualifies for.
	affDW := op.dwAff != nil && path != BwdPathFused
	affDX := op.dxAff != nil && path != BwdPathFused

	// Per-sweep prep buffers, grown here (never inside the workers,
	// which share the arena).
	if affDW {
		s.awk = grow(s.awk, outC*k)
		s.bwk = grow(s.bwk, outC*k)
	} else if hasGemmAsm {
		s.woffW = grow(s.woffW, outC*k)
	}
	if affDX {
		s.axk = grow(s.axk, k*outC)
		s.bxk = grow(s.bxk, k*outC)
	} else if hasGemmAsm {
		s.woffX = grow(s.woffX, k*outC)
	}

	zx := float32(px.Zero)

	// Weight-gradient sweep, one output channel per work item. The
	// single dyT scan that feeds the kernels also produces gsum (the
	// bias gradient, ascending r like the layers' original loop) and
	// gsT[oc][r] = dy[r][oc] * s_w[oc], the pre-scaled gradients the dX
	// sweep consumes — the former standalone gsum pass is gone.
	s.dwRun = bwdDWRun{op: op, s: s, dw: dw, gsum: gsum, xq: xq, wq: wq,
		wClip: wClip, rows: rows, k: k, zx: zx, scale: px.Scale, affine: affDW}
	tensor.ParallelRowsOn(outC, &s.dwRun)

	// Input-gradient sweep: each k column of dxT is touched by every
	// output channel but by no other column, so columns parallelize
	// freely; the oc loop stays ascending per destination.
	s.dxRun = bwdDXRun{op: op, s: s, wq: wq, rows: rows, outC: outC, k: k, affine: affDX}
	tensor.ParallelBlocksOn(k, transTile, &s.dxRun)

	// Transpose back to row-major and, unless the caller masks (nil
	// xClip), apply the straight-through clip mask (zero gradient for
	// operands clamped during quantization).
	s.toutRun = bwdTransOutRun{s: s, dxcols: dxcols, xClip: xClip, rows: rows, k: k}
	tensor.ParallelBlocksOn(rows, transTile, &s.toutRun)
}

// backwardTransposeOut writes dxT (k x rows) back into row-major
// dxcols for rows [lo, hi), zeroing clip-masked entries (none when
// xClip is nil).
func backwardTransposeOut(dxcols, dxT []float32, xClip []bool, lo, hi, rows, k int) {
	for rb := lo; rb < hi; rb += transTile {
		rhi := rb + transTile
		if rhi > hi {
			rhi = hi
		}
		for ib := 0; ib < k; ib += transTile {
			ihi := ib + transTile
			if ihi > k {
				ihi = k
			}
			for r := rb; r < rhi; r++ {
				for i := ib; i < ihi; i++ {
					v := dxT[i*rows+r]
					if xClip != nil && xClip[r*k+i] {
						v = 0
					}
					dxcols[r*k+i] = v
				}
			}
		}
	}
}

// dwPrologue is the folded first pass of every dW kernel: one scan of
// the channel's upstream gradients produces gsum[oc] (ascending r,
// exactly the layers' original bias accumulation) and the pre-scaled
// row gsT[oc][r] for the dX sweep.
func (s *KernelScratch) dwPrologue(gsum, dyc []float32, oc, rows int) {
	gp := s.gsT[oc*rows : (oc+1)*rows][:len(dyc)]
	sw := s.swc[oc]
	var sum float32
	for r, g := range dyc {
		sum += g
		gp[r] = g * sw
	}
	gsum[oc] = sum
}

// bwdDWAffine computes one channel's weight gradients on the affine
// tier: dwr[i] accumulates g * (fl(fl(a_i*x) + b_i) - zx) over
// ascending r, where (a_i, b_i) are the verified coefficients of the
// DW row for weight level wq[oc][i]. Full 16-column blocks run in asm
// directly over the row-major operand matrix; tail columns use the
// contiguous xT columns in Go with the identical expression.
func (op *Op) bwdDWAffine(s *KernelScratch, dw, gsum, dyc []float32, xq, wq []uint8, oc, rows, k int, zx float32) {
	s.dwPrologue(gsum, dyc, oc, rows)
	aRow := s.awk[oc*k : (oc+1)*k]
	bRow := s.bwk[oc*k : (oc+1)*k]
	wr := wq[oc*k : (oc+1)*k]
	for i, wv := range wr {
		aRow[i] = op.dwAff[wv].A
		bRow[i] = op.dwAff[wv].B
	}
	dwr := dw[oc*k : (oc+1)*k]
	iLo := 0
	if hasGemmAsm && rows > 0 {
		if kBlk := k &^ 15; kBlk > 0 {
			bwdAffineDWAVX2(&dwr[0], &xq[0], &dyc[0], &aRow[0], &bRow[0], zx,
				int64(rows), int64(k), int64(kBlk))
			iLo = kBlk
		}
	}
	for i := iLo; i < k; i++ {
		a, b := aRow[i], bRow[i]
		xrow := s.xT[i*rows : i*rows+rows][:len(dyc)]
		var acc float32
		for r, g := range dyc {
			t := float32(a*float32(xrow[r])) + b
			acc += g * (t - zx)
		}
		dwr[i] = acc
	}
}

// bwdDWGather computes one channel's weight gradients on the fused
// gather tier with asm: per 8-column block the DW entry is fetched by
// VGATHERDPS at index woff_i + x (woff_i = wq[oc][i]*padStride), then
// accumulated exactly like the reference. Tail columns gather in Go
// from the padded rows.
func (op *Op) bwdDWGather(s *KernelScratch, dw, gsum, dyc []float32, xq, wq []uint8, oc, rows, k int, zx float32) {
	s.dwPrologue(gsum, dyc, oc, rows)
	woff := s.woffW[oc*k : (oc+1)*k]
	wr := wq[oc*k : (oc+1)*k]
	for i, wv := range wr {
		woff[i] = int32(wv) * padStride
	}
	dwr := dw[oc*k : (oc+1)*k]
	iLo := 0
	if rows > 0 {
		if kBlk := k &^ 7; kBlk > 0 {
			bwdGatherDWAVX2(&dwr[0], &xq[0], &dyc[0], &woff[0], &op.gwPad[0], zx,
				int64(rows), int64(k), int64(kBlk))
			iLo = kBlk
		}
	}
	gwPad := op.gwPad
	for i := iLo; i < k; i++ {
		gw := gwPad[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
		xrow := s.xT[i*rows : i*rows+rows][:len(dyc)]
		var acc float32
		for r, g := range dyc {
			acc += g * (gw[xrow[r]] - zx)
		}
		dwr[i] = acc
	}
}

// bwdDWPairs is the no-asm general dW kernel: the PR 2 column-pair
// loops, with the gsum/gsT prologue folded into the first column
// pair's dy scan so dyT is still scanned only k/2 times total.
func (op *Op) bwdDWPairs(s *KernelScratch, dw, gsum, dyc []float32, wq []uint8, oc, rows, k int, zx float32) {
	gwPad := op.gwPad
	wr := wq[oc*k : (oc+1)*k]
	dwr := dw[oc*k : (oc+1)*k]
	gp := s.gsT[oc*rows : (oc+1)*rows][:len(dyc)]
	sw := s.swc[oc]
	i := 0
	if i+1 < len(wr) {
		// First pair carries the folded prologue: the same scan that
		// feeds the two accumulators also sums gsum (every g, including
		// zeros) and writes the pre-scaled gsT row.
		gw0 := gwPad[int(wr[0])*padStride : int(wr[0])*padStride+padStride]
		gw1 := gwPad[int(wr[1])*padStride : int(wr[1])*padStride+padStride]
		x0 := s.xT[0:rows][:len(dyc)]
		x1 := s.xT[rows : 2*rows][:len(dyc)]
		var sum, acc0, acc1 float32
		for r, g := range dyc {
			sum += g
			gp[r] = g * sw
			if g == 0 {
				continue
			}
			acc0 += g * (gw0[x0[r]] - zx)
			acc1 += g * (gw1[x1[r]] - zx)
		}
		gsum[oc] = sum
		dwr[0] = acc0
		dwr[1] = acc1
		i = 2
	} else {
		s.dwPrologue(gsum, dyc, oc, rows)
	}
	for ; i+1 < len(wr); i += 2 {
		gw0 := gwPad[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
		gw1 := gwPad[int(wr[i+1])*padStride : int(wr[i+1])*padStride+padStride]
		x0 := s.xT[i*rows : i*rows+rows][:len(dyc)]
		x1 := s.xT[(i+1)*rows : (i+1)*rows+rows][:len(dyc)]
		var acc0, acc1 float32
		for r, g := range dyc {
			if g == 0 {
				continue
			}
			acc0 += g * (gw0[x0[r]] - zx)
			acc1 += g * (gw1[x1[r]] - zx)
		}
		dwr[i] = acc0
		dwr[i+1] = acc1
	}
	if i < len(wr) {
		gw := gwPad[int(wr[i])*padStride : int(wr[i])*padStride+padStride]
		xrow := s.xT[i*rows : i*rows+rows][:len(dyc)]
		var acc float32
		for r, g := range dyc {
			if g == 0 {
				continue
			}
			acc += g * (gw[xrow[r]] - zx)
		}
		dwr[i] = acc
	}
}

// bwdDXAffine computes the input gradients for k columns [lo, hi) on
// the affine tier: dxT[i][r] accumulates, over ascending oc,
// gsT[oc][r] * (fl(fl(a*x) + b) - zw[oc]) with (a, b) the verified DX
// coefficients for weight level wq[oc][i]. Full 32-row chunks run in
// asm; tail rows use the identical Go expression.
func (op *Op) bwdDXAffine(s *KernelScratch, wq []uint8, lo, hi, rows, outC, k int) {
	rows32 := 0
	if hasGemmAsm {
		rows32 = rows &^ 31
	}
	for i := lo; i < hi; i++ {
		aCol := s.axk[i*outC : (i+1)*outC]
		bCol := s.bxk[i*outC : (i+1)*outC]
		for oc := 0; oc < outC; oc++ {
			af := op.dxAff[wq[oc*k+i]]
			aCol[oc] = af.A
			bCol[oc] = af.B
		}
		xcol := s.xT[i*rows : (i+1)*rows]
		dxr := s.dxT[i*rows : (i+1)*rows]
		if rows32 > 0 {
			bwdAffineDXAVX2(&dxr[0], &xcol[0], &s.gsT[0], &aCol[0], &bCol[0], &s.zwc[0],
				int64(rows32), int64(rows), int64(outC))
		}
		for r := rows32; r < rows; r++ {
			xf := float32(xcol[r])
			var acc float32
			for oc := 0; oc < outC; oc++ {
				t := float32(aCol[oc]*xf) + bCol[oc]
				acc += s.gsT[oc*rows+r] * (t - s.zwc[oc])
			}
			dxr[r] = acc
		}
	}
}

// bwdDXGather computes the input gradients for k columns [lo, hi) on
// the fused gather tier with asm: per output channel the DX row base
// is wq[oc][i]*padStride and VGATHERDPS fetches 8 entries at the x
// levels of 32-row chunks. Tail rows gather in Go.
func (op *Op) bwdDXGather(s *KernelScratch, wq []uint8, lo, hi, rows, outC, k int) {
	rows32 := rows &^ 31
	gxPad := op.gxPad
	for i := lo; i < hi; i++ {
		woff := s.woffX[i*outC : (i+1)*outC]
		for oc := 0; oc < outC; oc++ {
			woff[oc] = int32(wq[oc*k+i]) * padStride
		}
		xcol := s.xT[i*rows : (i+1)*rows]
		dxr := s.dxT[i*rows : (i+1)*rows]
		if rows32 > 0 {
			bwdGatherDXAVX2(&dxr[0], &xcol[0], &s.gsT[0], &woff[0], &gxPad[0], &s.zwc[0],
				int64(rows32), int64(rows), int64(outC))
		}
		for r := rows32; r < rows; r++ {
			var acc float32
			for oc := 0; oc < outC; oc++ {
				gs := s.gsT[oc*rows+r]
				if gs == 0 {
					continue
				}
				acc += gs * (gxPad[int(woff[oc])+int(xcol[r])] - s.zwc[oc])
			}
			dxr[r] = acc
		}
	}
}

// bwdDXPairs is the no-asm general dX kernel: the PR 2 column-pair
// loops, reading the pre-scaled gsT rows the dW sweep produced instead
// of rescaling dy per use (identical bits: gsT holds the same g*s_w
// products, and skipped ±0 entries contribute bit-neutral terms).
func (op *Op) bwdDXPairs(s *KernelScratch, wq []uint8, lo, hi, rows, outC, k int) {
	gxPad := op.gxPad
	i := lo
	for ; i+1 < hi; i += 2 {
		x0 := s.xT[i*rows : i*rows+rows]
		x1 := s.xT[(i+1)*rows : (i+1)*rows+rows]
		d0 := s.dxT[i*rows : i*rows+rows]
		d1 := s.dxT[(i+1)*rows : (i+1)*rows+rows]
		for r := range d0 {
			d0[r] = 0
		}
		for r := range d1 {
			d1[r] = 0
		}
		for oc := 0; oc < outC; oc++ {
			gx0 := gxPad[int(wq[oc*k+i])*padStride : int(wq[oc*k+i])*padStride+padStride]
			gx1 := gxPad[int(wq[oc*k+i+1])*padStride : int(wq[oc*k+i+1])*padStride+padStride]
			gsc := s.gsT[oc*rows : (oc+1)*rows]
			zw := s.zwc[oc]
			d0v := d0[:len(gsc)]
			d1v := d1[:len(gsc)]
			x0v := x0[:len(gsc)]
			x1v := x1[:len(gsc)]
			for r, gs := range gsc {
				if gs == 0 {
					continue
				}
				d0v[r] += gs * (gx0[x0v[r]] - zw)
				d1v[r] += gs * (gx1[x1v[r]] - zw)
			}
		}
	}
	if i < hi {
		xrow := s.xT[i*rows : i*rows+rows]
		dxr := s.dxT[i*rows : i*rows+rows]
		for r := range dxr {
			dxr[r] = 0
		}
		for oc := 0; oc < outC; oc++ {
			wv := wq[oc*k+i]
			gx := gxPad[int(wv)*padStride : int(wv)*padStride+padStride]
			gsc := s.gsT[oc*rows : (oc+1)*rows]
			zw := s.zwc[oc]
			dxv := dxr[:len(gsc)]
			xv := xrow[:len(gsc)]
			for r, gs := range gsc {
				if gs == 0 {
					continue
				}
				dxv[r] += gs * (gx[xv[r]] - zw)
			}
		}
	}
}

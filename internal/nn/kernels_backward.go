package nn

import (
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// Tiered backward kernels, mirroring the forward architecture: a sparse
// upstream gradient runs whole on the small row of the backward ladder
// (tiers.go); otherwise the dW and the dX sweep each run on the best
// kernel their own gradient table's structure admits.
//
//   - affine: every row of the table is an exact affine function of the
//     opposing level (verified bitwise at ensurePadded, see
//     gradient.RowAffinity), so the LUT gather collapses to two dense
//     float ops — a multiply and an add — evaluated 8/32 lanes at a
//     time in AVX2 asm (gemm_bwd_amd64.s) with a pure-Go fallback.
//     STE tables take it on both sweeps; cvste's DX table qualifies
//     while its DW table does not.
//   - fused: general tables (smoothdiff/stochastic/rawdiff) keep the
//     gather but run it as an AVX2 VGATHERDPS kernel over the padded
//     rows — independent gathers at the host's gather rate, see the
//     dependency rule in gemm_bwd_amd64.s — or as Go loops without asm.
//
// Both sweeps read the k-major operand matrix xT (k x rows). The dW
// kernels put SIMD lanes on 8 output channels: for one k column they
// broadcast the level xT[i][r] and load dy[r][oc..oc+7] as one vector,
// r ascending, so lane oc accumulates dW[oc][i] in the reference order;
// the dX kernels put lanes on rows and walk oc ascending. Both sweeps
// are scheduled in ParallelRowsOn blocks of k columns. The gsum
// column sums and the per-channel dy scaling (gsT) fall out of one scan
// of dy per channel (bwdGradRun), the row-major dy copy the dW lanes
// load out of one per block of rows (bwdDyRRun).
//
// Bit-exactness with BackwardGEMMRef is preserved by construction on
// every tier: per-destination accumulation order is unchanged
// (ascending r for dW, ascending oc for dX — lanes map to independent
// destinations, never to summation terms), the affine substitution
// reproduces the table entry bit for bit (that is what the verifier
// proves), and the dense kernels may include the g == 0 terms the
// reference skips because a zero gradient contributes ±0 and a float32
// accumulator that starts at +0 can never change bits by adding ±0.
// The kernels use no FMA: the affine reconstruction is an explicitly
// rounded multiply then add (VMULPS + VADDPS, float32(a*x) + b in Go),
// matching the verifier's expression exactly.

// backwardT is the backward GEMM on the k-major operand matrix xT
// (k x rows): it adds the weight gradient into dw (outC x k) and the
// column sums of dy into gsum — a layer's Weight.Grad and Bias.Grad —
// and writes the unmasked k-major input gradient into dxT (k x rows)
// unless dxT is nil, which skips the dX sweep (a model's first layer,
// whose input is data). Like forwardT's y, dy is NCHW planes of hw
// positions: dy[(r/hw*outC+oc)*hw + r%hw] is the gradient of row r,
// channel oc.
func (op *Op) backwardT(s *KernelScratch, dw, dxT, gsum, dy []float32, hw int, xT, wq []uint8, wClip []bool,
	rows, outC, k int, pw []quant.Params, px quant.Params) {

	op.ensurePadded()
	s.weightParams(pw, outC)
	zx := float32(px.Zero)

	dwTier, dxTier, _, count := op.backwardTiers(dy)
	count.Inc()
	if dwTier == nil {
		bwdSmall.run(op, s, dw, dxT, gsum, dy, hw, xT, wq, wClip, rows, outC, k, zx, px.Scale)
		return
	}
	s.scanGrad(gsum, dy, hw, rows, outC)
	op.sweepDW(s, dw, xT, wq, wClip, rows, outC, k, zx, px.Scale, dwTier)
	if dxT != nil {
		op.sweepDX(s, dxT, xT, wq, rows, outC, k, dxTier)
	}
}

// backwardSmall is the small row's kernel: one scan of dy into the
// per-channel nonzero lists, then both gradients of every k column in
// one walk of them (bwdSmallRun).
func (op *Op) backwardSmall(s *KernelScratch, dw, dxT, gsum, dy []float32, hw int, xT, wq []uint8, wClip []bool,
	rows, outC, k int, zx, scale float32) {

	s.nz.build(gsum, dy, rows, outC, hw)
	s.smallRun = bwdSmallRun{op: op, s: s, dw: dw, dxT: dxT, xT: xT, wq: wq, wClip: wClip,
		rows: rows, outC: outC, k: k, zx: zx, scale: scale}
	tensor.ParallelRowsOn(k, &s.smallRun)
}

// weightParams spreads the per-tensor or per-channel weight
// quantization parameters into the per-channel scale and zero-point
// rows the backward kernels read.
func (s *KernelScratch) weightParams(pw []quant.Params, outC int) {
	checkPW(pw, outC)
	s.swc = grow(s.swc, outC)
	s.zwc = grow(s.zwc, outC)
	for oc := 0; oc < outC; oc++ {
		p := pwAt(pw, oc)
		s.swc[oc] = p.Scale
		s.zwc[oc] = float32(p.Zero)
	}
}

// scanGrad is the sweep rows' two scans of dy: per channel for gsum and
// gsT (bwdGradRun), per block of rows for dyR (bwdDyRRun), whose rows
// the blocks then own whole. The dW side's matrices have a lane stride
// of at least one vector: below eight channels the spare lanes carry
// zero gradients (and zero coefficients), so the lane kernels serve
// every width.
func (s *KernelScratch) scanGrad(gsum, dy []float32, hw, rows, outC int) {
	ld := max(outC, dwLanes)
	s.gsT = grow(s.gsT, outC*rows)
	s.dyR = grow(s.dyR, rows*ld)
	s.gradRun = bwdGradRun{s: s, gsum: gsum, dy: dy, rows: rows, outC: outC, hw: hw}
	tensor.ParallelRowsOn(outC, &s.gradRun)
	s.dyRRun = bwdDyRRun{dyR: s.dyR, dy: dy, outC: outC, ld: ld, hw: hw}
	tensor.ParallelImagesOn(rows, hw, 0, &s.dyRRun)
}

// sweepDW is the weight-gradient sweep on tier's kernel. Column i of dwT
// is touched by no other column, so column blocks parallelize freely; r
// stays ascending per destination. The k-major tables are grown here
// (never inside the workers, which share the arena) and filled by the
// worker that owns the block.
func (op *Op) sweepDW(s *KernelScratch, dw []float32, xT, wq []uint8, wClip []bool,
	rows, outC, k int, zx, scale float32, tier *bwdSweep) {

	ld := max(outC, dwLanes)
	s.dwT = grow(s.dwT, k*ld)
	tier.tables(s, k*ld)
	s.dwRun = bwdDWRun{op: op, s: s, dw: dw, xT: xT, wq: wq, wClip: wClip,
		rows: rows, outC: outC, ld: ld, k: k, zx: zx, scale: scale, tier: tier}
	tensor.ParallelRowsOn(k, &s.dwRun)
}

// sweepDX is the input-gradient sweep: each k column of dxT is touched by
// every output channel but by no other column, so it takes the dW sweep's
// grain (k = 72 is eight blocks of nine, not 64 + 8); the oc loop stays
// ascending per destination. Its column blocks refill the coefficient
// tables the dW sweep is done with.
func (op *Op) sweepDX(s *KernelScratch, dxT []float32, xT, wq []uint8, rows, outC, k int, tier *bwdSweep) {
	tier.tables(s, k*outC)
	s.dxRun = bwdDXRun{op: op, s: s, dxT: dxT, xT: xT, wq: wq, rows: rows, outC: outC, k: k, tier: tier}
	tensor.ParallelRowsOn(k, &s.dxRun)
}

// dwLanes is the SIMD width of the dW kernels, in output channels.
const dwLanes = 8

// BackwardSweep runs the parts of BackwardGEMM's sweep rows the caller
// names, on an already k-major operand matrix xT (k x rows) and on the
// rows the ladder picks for the op's tables and pin: the scan of dy
// (row-major, rows x outC; its column sums added into gsum) unless dy is
// nil — the sweeps then read what the last scan left in s —, the
// weight-gradient sweep, added into dw, unless dw is nil, and the
// input-gradient sweep into the k-major dxT unless dxT is nil.
// A benchmark-harness hook like Pinned: cmd/benchkernels times each
// sweep's kernels alone with it; no layer calls it.
func (op *Op) BackwardSweep(s *KernelScratch, dw, dxT, gsum, dy []float32, xT, wq []uint8, wClip []bool,
	rows, outC, k int, pw []quant.Params, px quant.Params) {

	op.ensurePadded()
	s.weightParams(pw, outC)
	if dy != nil {
		s.scanGrad(gsum, dy, 1, rows, outC)
	}
	if dw != nil {
		op.sweepDW(s, dw, xT, wq, wClip, rows, outC, k, float32(px.Zero), px.Scale, op.sweepTier(op.dwAff))
	}
	if dxT != nil {
		op.sweepDX(s, dxT, xT, wq, rows, outC, k, op.sweepTier(op.dxAff))
	}
}

// nonzeros holds, for every output channel, the (row, gradient) pairs
// of its nonzero upstream gradients, rows ascending: channel oc owns
// entries off[oc]..off[oc+1] of (r, g) — the operand of the small tier
// and of the float Conv2D's sparse path.
type nonzeros struct {
	off []int
	r   []int32
	g   []float32
}

// build fills the lists and, unless gsum is nil, adds the per-channel
// sums of dy into gsum, from one scan of dy (NCHW planes of hw
// positions).
func (l *nonzeros) build(gsum, dy []float32, rows, outC, hw int) {
	nnz := 0
	for _, g := range dy {
		if g != 0 {
			nnz++
		}
	}
	l.off = grow(l.off, outC+1)
	l.r = grow(l.r, nnz)
	l.g = grow(l.g, nnz)
	n := 0
	for oc := 0; oc < outC; oc++ {
		l.off[oc] = n
		j, p := oc*hw, 0 // as in bwdGradRun
		var sum float32
		for r := 0; r < rows; r++ {
			if g := dy[j]; g != 0 { // a zero adds nothing to gsum either
				sum += g
				l.r[n], l.g[n] = int32(r), g
				n++
			}
			j++
			if p++; p == hw {
				j, p = j+(outC-1)*hw, 0
			}
		}
		if gsum != nil {
			gsum[oc] += sum
		}
	}
	l.off[outC] = n
}

// backwardTransposeOut writes dxT (k x rows) back into row-major
// dxcols for rows [lo, hi), zeroing clip-masked entries (none when
// xClip is nil) — the BackwardGEMM adapter's way out of the k-major
// kernels.
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

// bwdDWAffine computes the weight gradients of k columns [lo, hi) into
// dwT (k x ld) on the affine row: dwT[i][oc] accumulates
// dyR[r][oc] * (T - zx) over ascending r, where T is the verified
// reconstruction fl(fl(a*x) + b) of the DW table entry for weight level
// wq[oc][i] and operand level x = xT[i][r]. The block first fills its
// rows of the k-major coefficient tables (spare lanes zero). The asm
// kernel takes two columns and eight channels per call; an odd block
// repeats its last column and a channel count off the lane width its
// last eight channels (same values stored twice). Without asm the Go
// twin takes whole columns.
func (op *Op) bwdDWAffine(s *KernelScratch, xT, wq []uint8, lo, hi, rows, outC, ld, k int, zx float32) {
	goLanes := !hasGemmAsm || rows == 0
	for i := lo; i < hi; i++ {
		aRow, bRow := s.ak[i*ld:(i+1)*ld], s.bk[i*ld:(i+1)*ld]
		clear(aRow[outC:])
		clear(bRow[outC:])
		for oc := 0; oc < outC; oc++ {
			af := op.dwAff[wq[oc*k+i]]
			aRow[oc], bRow[oc] = af.A, af.B
		}
		if goLanes {
			bwdAffineDWLanes(s.dwT[i*ld:(i+1)*ld], xT[i*rows:(i+1)*rows], s.dyR, aRow, bRow, zx)
		}
	}
	if goLanes {
		return
	}
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		for oc := 0; oc < ld; oc += dwLanes {
			oc = min(oc, ld-dwLanes)
			c0, c1 := i*ld+oc, i1*ld+oc
			bwdAffineDWAVX2(&s.dwT[c0], &s.dwT[c1], &xT[i*rows], &xT[i1*rows], &s.dyR[oc],
				&s.ak[c0], &s.bk[c0], &s.ak[c1], &s.bk[c1], zx, int64(rows), int64(ld))
		}
	}
}

// bwdDWGather is bwdDWAffine on the fused row: T is the table entry
// gwPad[wq[oc][i]*padStride + x] itself, fetched by VGATHERDPS with the
// eight channels' row offsets as the index vector and the level as the
// base.
func (op *Op) bwdDWGather(s *KernelScratch, xT, wq []uint8, lo, hi, rows, outC, ld, k int, zx float32) {
	goLanes := !hasGemmAsm || rows == 0
	for i := lo; i < hi; i++ {
		woff := s.woff[i*ld : (i+1)*ld]
		clear(woff[outC:]) // spare lanes gather row 0
		for oc := 0; oc < outC; oc++ {
			woff[oc] = int32(wq[oc*k+i]) * padStride
		}
		if goLanes {
			bwdGatherDWLanes(s.dwT[i*ld:(i+1)*ld], xT[i*rows:(i+1)*rows], s.dyR, woff, op.gwPad, zx)
		}
	}
	if goLanes {
		return
	}
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		for oc := 0; oc < ld; oc += dwLanes {
			oc = min(oc, ld-dwLanes)
			c0, c1 := i*ld+oc, i1*ld+oc
			bwdGatherDWAVX2(&s.dwT[c0], &s.dwT[c1], &xT[i*rows], &xT[i1*rows], &s.dyR[oc],
				&s.woff[c0], &s.woff[c1], &op.gwPad[0], zx, int64(rows), int64(ld))
		}
	}
}

// bwdAffineDWLanes is the pure-Go twin of bwdAffineDWAVX2 for one k
// column and every lane: out[oc] accumulates the weight gradient over
// the column's levels xcol, with the identical separately rounded
// expression. dyR's row stride is len(out).
func bwdAffineDWLanes(out []float32, xcol []uint8, dyR, a, b []float32, zx float32) {
	clear(out)
	a, b = a[:len(out)], b[:len(out)]
	for r, xv := range xcol {
		xf := float32(xv)
		g := dyR[r*len(out):][:len(out)]
		for l := range out {
			t := float32(a[l]*xf) + b[l]
			out[l] += float32(g[l] * (t - zx))
		}
	}
}

// bwdGatherDWLanes is the pure-Go twin of bwdGatherDWAVX2 for one k
// column.
func bwdGatherDWLanes(out []float32, xcol []uint8, dyR []float32, woff []int32, gwPad []float32, zx float32) {
	clear(out)
	woff = woff[:len(out)]
	for r, xv := range xcol {
		g := dyR[r*len(out):][:len(out)]
		for l := range out {
			out[l] += float32(g[l] * (gwPad[int(woff[l])+int(xv)] - zx))
		}
	}
}

// bwdDXAffine computes the input gradients for k columns [lo, hi) on
// the affine tier: dxT[i][r] accumulates, over ascending oc,
// gsT[oc][r] * (fl(fl(a*x) + b) - zw[oc]) with (a, b) the verified DX
// coefficients for weight level wq[oc][i]. Full 32-row chunks run in
// asm; tail rows use the identical Go expression.
func (op *Op) bwdDXAffine(s *KernelScratch, dxT []float32, xT, wq []uint8, lo, hi, rows, outC, k int) {
	rows32 := 0
	if hasGemmAsm {
		rows32 = rows &^ 31
	}
	for i := lo; i < hi; i++ {
		aCol := s.ak[i*outC : (i+1)*outC]
		bCol := s.bk[i*outC : (i+1)*outC]
		for oc := 0; oc < outC; oc++ {
			af := op.dxAff[wq[oc*k+i]]
			aCol[oc] = af.A
			bCol[oc] = af.B
		}
		xcol := xT[i*rows : (i+1)*rows]
		dxr := dxT[i*rows : (i+1)*rows]
		if rows32 > 0 {
			bwdAffineDXAVX2(&dxr[0], &xcol[0], &s.gsT[0], &aCol[0], &bCol[0], &s.zwc[0],
				int64(rows32), int64(rows), int64(outC))
		}
		for r := rows32; r < rows; r++ {
			xf := float32(xcol[r])
			var acc float32
			for oc := 0; oc < outC; oc++ {
				t := float32(aCol[oc]*xf) + bCol[oc]
				acc += float32(s.gsT[oc*rows+r] * (t - s.zwc[oc]))
			}
			dxr[r] = acc
		}
	}
}

// bwdDXGather computes the input gradients for k columns [lo, hi) on
// the fused gather tier: per output channel the DX row base is
// wq[oc][i]*padStride and VGATHERDPS fetches 8 entries at the x levels
// of 32-row chunks. Tail rows gather in Go; without asm the column-pair
// loops of bwdDXPairs take the whole block.
func (op *Op) bwdDXGather(s *KernelScratch, dxT []float32, xT, wq []uint8, lo, hi, rows, outC, k int) {
	if !hasGemmAsm {
		op.bwdDXPairs(s, dxT, xT, wq, lo, hi, rows, outC, k)
		return
	}
	rows32 := rows &^ 31
	gxPad := op.gxPad
	for i := lo; i < hi; i++ {
		woff := s.woff[i*outC : (i+1)*outC]
		for oc := 0; oc < outC; oc++ {
			woff[oc] = int32(wq[oc*k+i]) * padStride
		}
		xcol := xT[i*rows : (i+1)*rows]
		dxr := dxT[i*rows : (i+1)*rows]
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
				acc += float32(gs * (gxPad[int(woff[oc])+int(xcol[r])] - s.zwc[oc]))
			}
			dxr[r] = acc
		}
	}
}

// bwdDXPairs is the no-asm general dX kernel: column-pair loops
// reading the pre-scaled gsT rows the dW sweep produced instead
// of rescaling dy per use (identical bits: gsT holds the same g*s_w
// products, and skipped ±0 entries contribute bit-neutral terms).
func (op *Op) bwdDXPairs(s *KernelScratch, dxT []float32, xT, wq []uint8, lo, hi, rows, outC, k int) {
	gxPad := op.gxPad
	i := lo
	for ; i+1 < hi; i += 2 {
		x0 := xT[i*rows : i*rows+rows]
		x1 := xT[(i+1)*rows : (i+1)*rows+rows]
		d0 := dxT[i*rows : i*rows+rows]
		d1 := dxT[(i+1)*rows : (i+1)*rows+rows]
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
				d0v[r] += float32(gs * (gx0[x0v[r]] - zw))
				d1v[r] += float32(gs * (gx1[x1v[r]] - zw))
			}
		}
	}
	if i < hi {
		xrow := xT[i*rows : i*rows+rows]
		dxr := dxT[i*rows : i*rows+rows]
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
				dxv[r] += float32(gs * (gx[xv[r]] - zw))
			}
		}
	}
}

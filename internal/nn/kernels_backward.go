package nn

import (
	"unsafe"

	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// Tiered backward kernels, mirroring the forward architecture: a sparse
// upstream gradient runs whole on the small row of the backward ladder
// (tiers.go); otherwise the dW and the dX sweep each run on the best
// kernel their own gradient table's structure admits.
//
//   - affine: the table is one verified affine function of x on every
//     row (dW) or constant in x on every row (dX; verified bitwise at
//     ensurePadded, see gradient.RowAffinity and Op.dwAff), so each
//     sweep is a float GEMM. The dW sweep reads one level table shared
//     by every column and channel, built once per call; the dX sweep
//     multiplies the gradients by one operand per (weight, column),
//     V = fl(fl(A*0) + B) - zw, two columns per AVX2 call
//     (gemm_bwd_amd64.s). STE tables take it on both sweeps, cvste's
//     DX table too (its DW table is not affine).
//   - fused: general tables (smoothdiff/stochastic/rawdiff) keep the
//     lookup. The dX sweep runs it as an AVX2 VGATHERDPS kernel over the
//     padded rows — independent gathers at the host's gather rate, see
//     the dependency rule in gemm_bwd_amd64.s. The dW sweep does too
//     below 2^B rows; from 2^B up it reads per-column level tables
//     (bwdDWTables), one load per row and no gather. Without asm both
//     are Go loops.
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
// rounded multiply then add (float32(a*x) + b in Go), matching the
// verifier's expression exactly, and is done once per level (dW) or
// per (weight, column) (dX) rather than per term.

// backwardT is the backward GEMM on the k-major operand matrix xT
// (kl x rows) and w's view of the weights (outC x kl levels, see
// weightSide.cut): per slice of the rows (s.grads) it adds the weight
// gradient into dw (outC x k, every weight column) and the column sums
// of dy into db, and writes the unmasked k-major input gradient of the
// view's columns into dxT (kl x rows) unless dxT is nil, which skips the
// dX sweep (a model's first layer, whose input is data). Like forwardT's
// y, dy is NCHW planes of hw positions: dy[(r/hw*outC+oc)*hw + r%hw] is
// the gradient of row r, channel oc. The weight columns the view leaves
// out get their gradient from one pass of their own (bwdDeadRun),
// whichever row ran the rest.
func (op *Op) backwardT(s *KernelScratch, dxT, dy []float32, hw int, xT []uint8, w *weightSide,
	rows int, px quant.Params) {

	op.ensurePadded()
	s.weightParams(w.pw, w.outC)
	zx := float32(px.Zero)

	dwTier, dxTier, nnz, _, count := op.backwardTiers(dy)
	count.Inc()
	if dwTier == nil {
		bwdSmall.run(op, s, dxT, dy, hw, xT, w, rows, nnz, zx, px.Scale)
	} else {
		s.scanGrad(dy, hw, rows, w.outC)
		op.sweepDW(s, xT, w, rows, zx, px.Scale, dwTier)
		if dxT != nil {
			op.sweepDX(s, dxT, xT, w.lq, rows, w.outC, w.kl, dxTier)
		}
	}
	if len(w.dead) > 0 {
		d := &s.deadRun
		d.op, d.w, d.g, d.dy, d.hw, d.scale = op, w, &s.grads, dy, hw, px.Scale
		d.setLanes(px.Zero)
		tensor.ParallelRowsOn(w.outC, d)
	}
}

// backwardSmall is the small row's kernel: one scan of dy, which holds
// nnz nonzeros, into the per-channel nonzero lists of each slice, then
// both gradients of every k column in one walk of them (bwdSmallRun).
func (op *Op) backwardSmall(s *KernelScratch, dxT, dy []float32, hw int, xT []uint8, w *weightSide,
	rows, nnz int, zx, scale float32) {

	s.nz.build(s.grads.db, dy, s.grads.cuts, w.outC, hw, nnz)
	s.smallRun = bwdSmallRun{op: op, s: s, dxT: dxT, xT: xT, w: w, rows: rows, zx: zx, scale: scale}
	tensor.ParallelRowsOn(w.kl, &s.smallRun)
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

// scanGrad is the sweep rows' two scans of dy: per channel for the
// column sums and gsT (bwdGradRun), per block of rows for dyR
// (bwdDyRRun), whose rows the blocks then own whole. The dW side's
// matrices have a lane stride of at least one vector: below eight
// channels the spare lanes carry zero gradients (and zero
// coefficients), so the lane kernels serve every width.
func (s *KernelScratch) scanGrad(dy []float32, hw, rows, outC int) {
	ld := max(outC, dwLanes)
	s.gsT = grow(s.gsT, outC*rows)
	s.dyR = grow(s.dyR, rows*ld)
	s.gradRun = bwdGradRun{s: s, dy: dy, rows: rows, outC: outC, hw: hw}
	tensor.ParallelRowsOn(outC, &s.gradRun)
	s.dyRRun = bwdDyRRun{dyR: s.dyR, dy: dy, outC: outC, ld: ld, hw: hw}
	tensor.ParallelRowsOn(rows, &s.dyRRun)
}

// sweepDW is the weight-gradient sweep on tier's kernel over the kl
// columns of w's view, each slice of the rows into its plane of dwT.
// Column i of dwT is touched by no other column, so
// column blocks parallelize freely; r stays ascending per destination.
// The k-major tables are grown here (never inside the workers, which
// share the arena) and filled by the worker that owns the block.
func (op *Op) sweepDW(s *KernelScratch, xT []uint8, w *weightSide, rows int, zx, scale float32, tier *bwdSweep) {
	ld := max(w.outC, dwLanes)
	s.dwT = grow(s.dwT, (len(s.grads.cuts)-1)*w.kl*ld)
	tier.dwPrep(op, s, w.kl*ld, zx)
	s.dwRun = bwdDWRun{op: op, s: s, xT: xT, w: w, rows: rows, ld: ld, zx: zx, scale: scale, tier: tier}
	tensor.ParallelRowsOn(w.kl, &s.dwRun)
}

// sweepDX is the input-gradient sweep: each k column of dxT is touched by
// every output channel but by no other column, so it takes the dW sweep's
// grain (k = 72 is eight blocks of nine, not 64 + 8); the oc loop stays
// ascending per destination. Its column blocks refill the k-major tables
// the dW sweep is done with.
func (op *Op) sweepDX(s *KernelScratch, dxT []float32, xT, wq []uint8, rows, outC, k int, tier *bwdSweep) {
	tier.dxPrep(s, k*outC)
	s.dxRun = bwdDXRun{op: op, s: s, dxT: dxT, xT: xT, wq: wq, rows: rows, outC: outC, k: k, tier: tier}
	tensor.ParallelRowsOn(k, &s.dxRun)
}

// dwLanes is the SIMD width of the dW kernels, in output channels.
const dwLanes = 8

// BackwardSweep runs the parts of BackwardGEMM's sweep rows the caller
// names, on BackwardGEMM's operands — the k-major operand matrix xT
// (k x rows), dy (rows x outC) — and on the rows the ladder picks for
// the op's tables and pin: the scan of dy (its column sums added into
// gsum) unless dy is nil — the sweeps then read what the last scan left
// in s —, the weight-gradient sweep, added into dw, unless dw is nil,
// and the unmasked input-gradient sweep into the k-major dxT unless dxT
// is nil.
// A benchmark-harness hook like Pinned: cmd/benchkernels times each
// sweep's kernels alone with it; no layer calls it.
func (op *Op) BackwardSweep(s *KernelScratch, dw, dxT, gsum, dy []float32, xT, wq []uint8, wClip []bool,
	rows, outC, k int, pw []quant.Params, px quant.Params) {

	op.ensurePadded()
	s.weightParams(pw, outC)
	s.grads.whole(rows, dw, gsum)
	if dy != nil {
		s.scanGrad(dy, 1, rows, outC)
	}
	if dw != nil {
		s.w.adopt(wq, wClip, pw, outC, k)
		op.sweepDW(s, xT, &s.w, rows, float32(px.Zero), px.Scale, op.sweepTier(op.dwAff))
	}
	if dxT != nil {
		op.sweepDX(s, dxT, xT, wq, rows, outC, k, op.sweepTier(op.dxAff))
	}
}

// nonzeros holds, for every output channel and slice of the rows, the
// (row, gradient) pairs of its nonzero upstream gradients, rows
// ascending: channel oc's slice s owns entries off[oc*S+s] to
// off[oc*S+s+1] — the small tier's and float Conv2D's sparse operand.
type nonzeros struct {
	off []int
	r   []int32
	g   []float32
	S   int
}

// build fills the lists of the slices cut at cuts (see gradCuts) and,
// unless gsum is nil, adds their per-channel sums of dy into gsum[s],
// from one scan of dy (NCHW planes of hw positions), whose nnz nonzeros
// the caller has counted (sparseGrad).
func (l *nonzeros) build(gsum [][]float32, dy []float32, cuts []int, outC, hw, nnz int) {
	l.S = len(cuts) - 1
	l.off = grow(l.off, outC*l.S+1)
	l.r = grow(l.r, nnz)
	l.g = grow(l.g, nnz)
	n := 0
	for oc := 0; oc < outC; oc++ {
		j, p := oc*hw, 0 // as in bwdGradRun
		for s := 0; s < l.S; s++ {
			l.off[oc*l.S+s] = n
			var sum float32
			for r, end := cuts[s], cuts[s+1]; r < end; r++ {
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
				gsum[s][oc] += sum
			}
		}
	}
	l.off[outC*l.S] = n
}

// list returns the rows and gradients of channel oc's slice s.
func (l *nonzeros) list(oc, s int) ([]int32, []float32) {
	a, b := l.off[oc*l.S+s], l.off[oc*l.S+s+1]
	return l.r[a:b], l.g[a:b]
}

// affineDWPrep builds the affine row's dW level table for the call:
// level x holds T = fl(fl(fl(A*x) + B) - zx), the DW table entry at x —
// alike on every row (uniformRows) — less the operand zero point, for
// all 256 levels, as the per-term reconstruction computed it.
func (op *Op) affineDWPrep(s *KernelScratch, n int, zx float32) {
	s.dwLev = grow(s.dwLev, padStride)
	af := op.dwAff[0]
	for x := range s.dwLev {
		s.dwLev[x] = float32(float32(af.A*float32(x))+af.B) - zx
	}
}

// bwdDWAffine computes the weight gradients of k columns [lo, hi) on
// the affine row into dwT (a k x ld plane per slice cut at cuts):
// dwT[sl][i][oc] accumulates dyR[r][oc] * T over the slice's ascending
// r, T read from the call's level table (affineDWPrep) at x = xT[i][r].
// The asm kernel takes four columns and eight channels per call, a
// short last group repeating its last column and a channel count off
// the lane width its last eight channels (same values stored twice).
// Without asm the Go twin takes whole columns.
func (op *Op) bwdDWAffine(s *KernelScratch, xT, wq []uint8, lo, hi, rows int, cuts []int, outC, ld, k int, zx float32) {
	if !hasGemmAsm || rows == 0 {
		for sl, r0 := range cuts[:len(cuts)-1] {
			for i := lo; i < hi; i++ {
				bwdUniformDWLanes(s.dwT[(sl*k+i)*ld:][:ld], xT[i*rows+r0:i*rows+cuts[sl+1]], s.dyR[r0*ld:], s.dwLev)
			}
		}
		return
	}
	var x [dwTabCols]*uint8
	var out [dwTabCols]*float32
	for i := lo; i < hi; i += dwTabCols {
		for oc := 0; oc < ld; oc += dwLanes {
			oc = min(oc, ld-dwLanes)
			for sl, r0 := range cuts[:len(cuts)-1] {
				for j := range x {
					c := min(i+j, hi-1)
					x[j], out[j] = &xT[c*rows+r0], &s.dwT[(sl*k+c)*ld+oc]
				}
				bwdUniformDWAVX2(out[0], out[1], out[2], out[3], x[0], x[1], x[2], x[3], &s.dyR[r0*ld+oc],
					&s.dwLev[0], int64(cuts[sl+1]-r0), int64(ld))
			}
		}
	}
}

// bwdUniformDWLanes is the pure-Go twin of bwdUniformDWAVX2 for one k
// column: out[oc] accumulates dyR[r][oc] * lev[x] over the column's
// levels xcol, the same rounded product added in the same order. dyR's
// row stride is len(out).
func bwdUniformDWLanes(out []float32, xcol []uint8, dyR, lev []float32) {
	clear(out)
	lev = lev[:padStride]
	for r, xv := range xcol {
		t := lev[xv]
		g := dyR[r*len(out):][:len(out)]
		for l := range out {
			out[l] += float32(g[l] * t)
		}
	}
}

// bwdDWGather is bwdDWAffine on the fused row: T is the table entry
// gwPad[wq[oc][i]*padStride + x] less zx. From 2^B rows up the asm path
// reads it from per-column level tables (bwdDWTables), one build for
// every slice. Below, VGATHERDPS fetches it (bwdDWGathers), because a
// table of 2^B levels costs about what gathering 2^B rows does: on two
// vCPUs of a Xeon host, 7-bit sweeps at oc64/k576 read the tables at
// 0.75x the gather's speed at 32 rows, 0.9x at 64, 1.1x at 96 and 1.3x at 128.
func (op *Op) bwdDWGather(s *KernelScratch, xT, wq []uint8, lo, hi, rows int, cuts []int, outC, ld, k int, zx float32) {
	goLanes := !hasGemmAsm || rows == 0
	for i := lo; i < hi; i++ {
		woff := s.woff[i*ld : (i+1)*ld]
		clear(woff[outC:]) // spare lanes gather row 0
		for oc := 0; oc < outC; oc++ {
			woff[oc] = int32(wq[oc*k+i]) * padStride
		}
		for sl := 0; goLanes && sl+1 < len(cuts); sl++ {
			r0, r1 := cuts[sl], cuts[sl+1]
			bwdGatherDWLanes(s.dwT[(sl*k+i)*ld:][:ld], xT[i*rows+r0:i*rows+r1], s.dyR[r0*ld:], woff, op.gwPad, zx)
		}
	}
	switch {
	case goLanes:
	case rows >= 1<<op.Bits:
		op.bwdDWTables(s, xT, lo, hi, rows, cuts, ld, k, zx)
	default:
		op.bwdDWGathers(s, xT, lo, hi, rows, cuts, ld, k, zx)
	}
}

// bwdDWGathers runs bwdGatherDWAVX2 over the k columns [lo, hi), two
// columns and eight channels per call and slice; the column offsets in
// s.woff are filled.
func (op *Op) bwdDWGathers(s *KernelScratch, xT []uint8, lo, hi, rows int, cuts []int, ld, k int, zx float32) {
	for i := lo; i < hi; i += 2 {
		i1 := min(i+1, hi-1)
		for oc := 0; oc < ld; oc += dwLanes {
			oc = min(oc, ld-dwLanes)
			c0, c1 := i*ld+oc, i1*ld+oc
			for sl, r0 := range cuts[:len(cuts)-1] {
				p := sl * k * ld
				bwdGatherDWAVX2(&s.dwT[p+c0], &s.dwT[p+c1], &xT[i*rows+r0], &xT[i1*rows+r0], &s.dyR[r0*ld+oc],
					&s.woff[c0], &s.woff[c1], &op.gwPad[0], zx, int64(cuts[sl+1]-r0), int64(ld))
			}
		}
	}
}

// dwTabCols is how many k columns one bwdTableDWAVX2 call sweeps, each
// on its own level table of dwTabLen entries: dwLanes channels at every
// uint8 level.
const (
	dwTabCols = 4
	dwTabLen  = padStride * dwLanes
)

// bwdDWTables is bwdDWGathers on level tables. Per block of eight
// channels each column's table T[x][l] = gwPad[woff[l]+x] - zx is built
// once (bwdDWTableAVX2), so the row loop (bwdTableDWAVX2) loads the
// term the gather kernel fetches and subtracts per row; a short last
// group of columns repeats its last column. The levels from 2^B up hold
// fl(0 - zx), the padded rows' zero minus zx, so any uint8 level reads
// what the gather would. Every entry is the same rounded subtract and
// every term the same product, added in the same order: no bit differs.
func (op *Op) bwdDWTables(s *KernelScratch, xT []uint8, lo, hi, rows int, cuts []int, ld, k int, zx float32) {
	// The tables (32 KiB) live on the stack, as the kernels keep no
	// pointer, and start on a cache line so that no row load straddles
	// two: unaligned, the r512 sweep ran 1.2x slower. Only speed depends
	// on the alignment.
	var buf [dwTabCols*dwTabLen + 16]float32
	a := int(-uintptr(unsafe.Pointer(&buf[0])) % 64 / 4)
	tabs := buf[a : a+dwTabCols*dwTabLen]
	n := max(1<<op.Bits, dwLanes) // levels the build writes: narrower rows are padded to 8
	if n < padStride {
		tail := tabs[n*dwLanes : dwTabLen]
		tail[0] = 0 - zx
		for f := 1; f < len(tail); f *= 2 {
			copy(tail[f:], tail[:f])
		}
		for c := 1; c < dwTabCols; c++ {
			copy(tabs[c*dwTabLen+n*dwLanes:(c+1)*dwTabLen], tail)
		}
	}
	var x [dwTabCols]*uint8
	var t, out [dwTabCols]*float32
	for i := lo; i < hi; i += dwTabCols {
		for oc := 0; oc < ld; oc += dwLanes {
			oc = min(oc, ld-dwLanes)
			for j := range x {
				c := min(i+j, hi-1)
				if c == i+j {
					bwdDWTableAVX2(&tabs[j*dwTabLen], &s.woff[c*ld+oc], &op.gwPad[0], zx, int64(n))
				}
				t[j] = &tabs[(c-i)*dwTabLen]
			}
			for sl, r0 := range cuts[:len(cuts)-1] {
				for j := range x {
					c := min(i+j, hi-1)
					x[j], out[j] = &xT[c*rows+r0], &s.dwT[(sl*k+c)*ld+oc]
				}
				bwdTableDWAVX2(out[0], out[1], out[2], out[3], x[0], x[1], x[2], x[3], &s.dyR[r0*ld+oc],
					t[0], t[1], t[2], t[3], int64(cuts[sl+1]-r0), int64(ld))
			}
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
// the affine row: dxT[i][r] accumulates, over ascending oc,
// gsT[oc][r] * V[oc][i] with V = fl(fl(A*0) + B) - zw[oc] and (A, B)
// the DX coefficients for weight level wq[oc][i] — the table entry at
// every x, as A is ±0 (constantRows). The block first fills its columns
// of the operands s.dxV (outC x k, wq's layout), then full 32-row chunks
// run in asm, two columns per call (an odd block repeats its last
// column); tail rows use the identical Go expression.
func (op *Op) bwdDXAffine(s *KernelScratch, dxT []float32, xT, wq []uint8, lo, hi, rows, outC, k int) {
	for oc := 0; oc < outC; oc++ {
		zw, v := s.zwc[oc], s.dxV[oc*k+lo:oc*k+hi]
		for j, w := range wq[oc*k+lo : oc*k+hi][:len(v)] {
			af := op.dxAff[w]
			v[j] = float32(float32(af.A*0)+af.B) - zw
		}
	}
	rows32 := 0
	if hasGemmAsm {
		rows32 = rows &^ 31
	}
	if rows32 > 0 {
		for i := lo; i < hi; i += 2 {
			i1 := min(i+1, hi-1)
			bwdConstDXAVX2(&dxT[i*rows], &dxT[i1*rows], &s.gsT[0], &s.dxV[i], &s.dxV[i1],
				int64(rows32), int64(rows), int64(outC), int64(k))
		}
	}
	for i := lo; i < hi && rows32 < rows; i++ {
		dxr := dxT[i*rows+rows32 : (i+1)*rows]
		clear(dxr)
		for oc := 0; oc < outC; oc++ {
			v := s.dxV[oc*k+i]
			for r, g := range s.gsT[oc*rows+rows32 : (oc+1)*rows][:len(dxr)] {
				dxr[r] += float32(g * v)
			}
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

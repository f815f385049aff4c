package nn

import (
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// Reusable tensor.RangeRunner bodies for every pool dispatch on the
// step hot path. Each runner lives in the KernelScratch arena; the
// kernels fill its fields and hand its pointer to the *On scheduling
// entry points, so a steady-state Forward/Backward GEMM performs zero
// heap allocations — the closure contexts that used to escape into the
// pool on every call are gone. (The reference kernels and other cold
// paths keep their closures; one allocation there is noise.)

// levelSumRun sums quantized levels per row of a (m x k) uint8 matrix
// into dst — the Eq. (8) cross-term passes. One instance serves both
// the per-channel (sumW) and per-row (sumX) passes because they run
// sequentially.
type levelSumRun struct {
	dst []int64
	q   []uint8
	k   int
}

func (t *levelSumRun) RunRange(lo, hi int) {
	for r := lo; r < hi; r++ {
		var sum int64
		for _, q := range t.q[r*t.k : (r+1)*t.k] {
			sum += int64(q)
		}
		t.dst[r] = sum
	}
}

// quantClipRun is the quantizeWithClip body; clip is nil on the
// inference path.
type quantClipRun struct {
	q    []uint8
	clip []bool
	data []float32
	p    quant.Params
}

func (t *quantClipRun) RunRange(lo, hi int) {
	var clip []bool
	if t.clip != nil {
		clip = t.clip[lo:hi]
	}
	t.p.QuantizeInto(t.q[lo:hi], clip, t.data[lo:hi])
}

// clipMaskRun is the maskClipped body.
type clipMaskRun struct {
	grad []float32
	clip []bool
}

func (t *clipMaskRun) RunRange(lo, hi int) {
	grad := t.grad[lo:hi]
	for i, c := range t.clip[lo:hi] {
		if c {
			grad[i] = 0
		}
	}
}

// fwdBlockedRun is the blocked-LUT forward tile body (uint32 or packed
// uint16 rows); the arena holds one instance per element width.
type fwdBlockedRun[E uint16 | uint32] struct {
	s       *KernelScratch
	dst     []float32
	lutPad  []E
	xq, wq  []uint8
	bias    []float32
	outC, k int
	zx      int64
	use32   bool
}

func (t *fwdBlockedRun[E]) RunRange(lo, hi int) {
	tl := fwdTilePool.Get().(*fwdTile)
	nR := hi - lo
	tl.xt = grow(tl.xt, fwdKTile*nR)
	if t.use32 {
		tl.acc32 = grow(tl.acc32, t.outC*nR)
		gemmAccumTiles(tl.acc32, tl.xt, t.lutPad, t.xq, t.wq, lo, nR, t.outC, t.k)
		fwdEpilogue(t.dst, tl.acc32, t.s, t.bias, lo, nR, t.outC, t.zx, 0)
	} else {
		tl.acc64 = grow(tl.acc64, t.outC*nR)
		gemmAccumTiles(tl.acc64, tl.xt, t.lutPad, t.xq, t.wq, lo, nR, t.outC, t.k)
		fwdEpilogue(t.dst, tl.acc64, t.s, t.bias, lo, nR, t.outC, t.zx, 0)
	}
	fwdTilePool.Put(tl)
}

// arithFwdRun is the closed-form forward tier's tile body (see
// kernels_arith.go for the kernel commentary).
type arithFwdRun struct {
	op      *Op
	s       *KernelScratch
	dst     []float32
	xq, wq  []uint8
	bias    []float32
	outC, k int
	zx      int64
	kComp   int64
	usePair bool
}

func (t *arithFwdRun) RunRange(lo, hi int) {
	af := t.op.arith
	nT := af.nT
	nKpTot := (t.k + 1) / 2
	cwp := t.s.cwp
	tl := fwdTilePool.Get().(*fwdTile)
	nR := hi - lo
	tl.xt = grow(tl.xt, fwdKTile*nR)
	tl.acc32 = grow(tl.acc32, t.outC*nR)
	acc := tl.acc32
	for i := range acc {
		acc[i] = 0
	}
	nR32 := nR &^ 31
	for kb := 0; kb < t.k; kb += fwdKTile {
		nK := t.k - kb
		if nK > fwdKTile {
			nK = fwdKTile
		}
		transposeTileU8(tl.xt, t.xq, lo, nR, kb, nK, t.k)
		if t.usePair && nK&1 == 1 {
			// Odd k-step count: the pair kernel reads a virtual last
			// column whose coefficient byte is zero; zero the column
			// so the dead VPAND input is defined.
			pad := tl.xt[nK*nR : (nK+1)*nR]
			for i := range pad {
				pad[i] = 0
			}
		}
		if nR32 > 0 {
			if t.usePair {
				bNKp := (nK + 1) / 2
				for oc := 0; oc < t.outC; oc++ {
					gemmArithPairAVX2(&acc[oc*nR], &tl.xt[0],
						&cwp[(oc*nKpTot+kb/2)*nT*2], &af.xmPair[0],
						int64(nR), int64(bNKp), int64(nT), int64(af.cadPair))
				}
			} else {
				for oc := 0; oc < t.outC; oc++ {
					gemmArithAccumAVX2(&acc[oc*nR], &tl.xt[0],
						&t.wq[oc*t.k+kb], &af.cw16[0], &af.xm16[0],
						int64(nR), int64(nK), int64(nT), int64(af.cadWord))
				}
			}
		}
		if nR32 < nR {
			arithTailRows(acc, tl.xt, af, t.wq, nR32, nR, nK, kb, t.outC, t.k)
		}
	}
	fwdEpilogue(t.dst, acc, t.s, t.bias, lo, nR, t.outC, t.zx, t.kComp)
	fwdTilePool.Put(tl)
}

// transU8Run / transF32Run carry the tiled full-matrix transposes of
// the backward setup.
type transU8Run struct {
	dst, src   []uint8
	rows, cols int
}

func (t *transU8Run) RunRange(lo, hi int) {
	transposeU8Tiles(t.dst, t.src, t.rows, t.cols, lo, hi)
}

type transF32Run struct {
	dst, src   []float32
	rows, cols int
}

func (t *transF32Run) RunRange(lo, hi int) {
	transposeF32Tiles(t.dst, t.src, t.rows, t.cols, lo, hi)
}

// bwdDWRun is the tiered dW sweep (one output channel per work item),
// including the folded gsum/gsT prologue and the clip/scale epilogue.
type bwdDWRun struct {
	op       *Op
	s        *KernelScratch
	dw, gsum []float32
	xq, wq   []uint8
	wClip    []bool
	rows, k  int
	zx       float32
	scale    float32
	affine   bool
}

func (t *bwdDWRun) RunRange(lo, hi int) {
	for oc := lo; oc < hi; oc++ {
		dyc := t.s.dyT[oc*t.rows : (oc+1)*t.rows]
		if t.affine {
			t.op.bwdDWAffine(t.s, t.dw, t.gsum, dyc, t.xq, t.wq, oc, t.rows, t.k, t.zx)
		} else if hasGemmAsm {
			t.op.bwdDWGather(t.s, t.dw, t.gsum, dyc, t.xq, t.wq, oc, t.rows, t.k, t.zx)
		} else {
			t.op.bwdDWPairs(t.s, t.dw, t.gsum, dyc, t.wq, oc, t.rows, t.k, t.zx)
		}
		dwr := t.dw[oc*t.k : (oc+1)*t.k]
		for i := range dwr {
			if t.wClip[oc*t.k+i] {
				dwr[i] = 0
			} else {
				dwr[i] *= t.scale
			}
		}
	}
}

// bwdDXRun is the tiered dX sweep over k columns.
type bwdDXRun struct {
	op            *Op
	s             *KernelScratch
	wq            []uint8
	rows, outC, k int
	affine        bool
}

func (t *bwdDXRun) RunRange(lo, hi int) {
	if t.affine {
		t.op.bwdDXAffine(t.s, t.wq, lo, hi, t.rows, t.outC, t.k)
	} else if hasGemmAsm {
		t.op.bwdDXGather(t.s, t.wq, lo, hi, t.rows, t.outC, t.k)
	} else {
		t.op.bwdDXPairs(t.s, t.wq, lo, hi, t.rows, t.outC, t.k)
	}
}

// bwdTransOutRun is the backward transpose of dxT back to row-major,
// clip-masked unless xClip is nil.
type bwdTransOutRun struct {
	s       *KernelScratch
	dxcols  []float32
	xClip   []bool
	rows, k int
}

func (t *bwdTransOutRun) RunRange(lo, hi int) {
	backwardTransposeOut(t.dxcols, t.s.dxT, t.xClip, lo, hi, t.rows, t.k)
}

// bwdSmallDWRun / bwdSmallDXRun are the small-shape backward passes
// (reference-shaped loops; see backwardSmall).
type bwdSmallDWRun struct {
	op            *Op
	dw, gsum      []float32
	dy            []float32
	xq, wq        []uint8
	wClip         []bool
	rows, outC, k int
	zx            float32
	scale         float32
}

func (t *bwdSmallDWRun) RunRange(lo, hi int) {
	bits := uint(t.op.Bits)
	gw := t.op.Grads.DW
	for oc := lo; oc < hi; oc++ {
		wr := t.wq[oc*t.k : (oc+1)*t.k]
		dwr := t.dw[oc*t.k : (oc+1)*t.k]
		for i := range dwr {
			dwr[i] = 0
		}
		var sum float32
		for r := 0; r < t.rows; r++ {
			g := t.dy[r*t.outC+oc]
			sum += g
			if g == 0 {
				continue
			}
			xr := t.xq[r*t.k : (r+1)*t.k]
			for i, xv := range xr {
				idx := int(wr[i])<<bits | int(xv)
				dwr[i] += g * (gw[idx] - t.zx)
			}
		}
		t.gsum[oc] = sum
		for i := range dwr {
			if t.wClip[oc*t.k+i] {
				dwr[i] = 0
			} else {
				dwr[i] *= t.scale
			}
		}
	}
}

type bwdSmallDXRun struct {
	op      *Op
	dxcols  []float32
	dy      []float32
	xq, wq  []uint8
	xClip   []bool
	pw      []quant.Params
	outC, k int
}

func (t *bwdSmallDXRun) RunRange(lo, hi int) {
	bits := uint(t.op.Bits)
	gx := t.op.Grads.DX
	for r := lo; r < hi; r++ {
		xr := t.xq[r*t.k : (r+1)*t.k]
		dxr := t.dxcols[r*t.k : (r+1)*t.k]
		for i := range dxr {
			dxr[i] = 0
		}
		for oc := 0; oc < t.outC; oc++ {
			g := t.dy[r*t.outC+oc]
			if g == 0 {
				continue
			}
			p := pwAt(t.pw, oc)
			gs := g * p.Scale
			zw := float32(p.Zero)
			wr := t.wq[oc*t.k : (oc+1)*t.k]
			for i, xv := range xr {
				idx := int(wr[i])<<bits | int(xv)
				dxr[i] += gs * (gx[idx] - zw)
			}
		}
		if t.xClip == nil {
			continue
		}
		for i := range dxr {
			if t.xClip[r*t.k+i] {
				dxr[i] = 0
			}
		}
	}
}

// scheduling helpers on the arena ----------------------------------

// levelSums runs one Eq. (8) cross-term pass (m rows of k levels each)
// through the arena's runner.
func (s *KernelScratch) levelSums(dst []int64, q []uint8, m, k int) {
	s.sumRun = levelSumRun{dst: dst, q: q, k: k}
	tensor.ParallelRowsOn(m, &s.sumRun)
}

// quantizeWithClip quantizes data into the caller-owned level buffer q
// and, when clip is non-nil, records which entries were clamped (the
// straight-through mask; the inference path passes nil) — one pass
// through the arena's runner, alloc-free.
func (s *KernelScratch) quantizeWithClip(q []uint8, clip []bool, data []float32, p quant.Params) {
	s.qcRun = quantClipRun{q: q, clip: clip, data: data, p: p}
	tensor.ParallelBlocksOn(len(data), 4096, &s.qcRun)
}

// maskClipped zeroes the entries of grad whose forward operand was
// clamped during quantization (the straight-through mask).
func (s *KernelScratch) maskClipped(grad []float32, clip []bool) {
	s.maskRun = clipMaskRun{grad: grad, clip: clip}
	tensor.ParallelBlocksOn(len(grad), 16384, &s.maskRun)
}

// transposeU8 writes the (rows x cols) matrix src into dst in
// (cols x rows) layout through the arena's runner.
func (s *KernelScratch) transposeU8(dst, src []uint8, rows, cols int) {
	s.tU8Run = transU8Run{dst: dst, src: src, rows: rows, cols: cols}
	tensor.ParallelBlocksOn(cols, transTile, &s.tU8Run)
}

// transposeF32 is transposeU8 for float32 matrices.
func (s *KernelScratch) transposeF32(dst, src []float32, rows, cols int) {
	s.tF32Run = transF32Run{dst: dst, src: src, rows: rows, cols: cols}
	tensor.ParallelBlocksOn(cols, transTile, &s.tF32Run)
}

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

// quantClipRun is the quantizeWithClip body; clip is nil for the input
// of the inference path.
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

// fwdTileRun is the forward row-block body shared by every tier: load
// each k tile of the block's rows out of the k-major operand matrix,
// accumulate it on the dispatched row's kernel (tiers.go), then
// dequantize into NCHW (see forwardT).
type fwdTileRun struct {
	op            *Op
	s             *KernelScratch
	y             []float32
	xT            []uint8
	w             *weightSide
	bias          []float32
	rows, outC, k int
	hw            int
	zx, kComp     int64
	tier          *fwdTier
	use32         bool
}

func (t *fwdTileRun) RunRange(lo, hi int) {
	tl := fwdTilePool.Get().(*fwdTile)
	nR := hi - lo
	tl.xt = grow(tl.xt, fwdKTile*nR)
	tl.sumX = grow(tl.sumX, nR)
	clear(tl.sumX)
	if t.use32 {
		tl.acc32 = grow(tl.acc32, t.outC*nR)
		clear(tl.acc32)
	} else {
		tl.acc64 = grow(tl.acc64, t.outC*nR)
		clear(tl.acc64)
	}
	for kb := 0; kb < t.k; kb += fwdKTile {
		nK := min(t.k-kb, fwdKTile)
		loadTile(tl.xt, tl.sumX, t.xT, t.rows, lo, nR, kb, nK)
		t.tier.accum(t, tl, nR, kb, nK)
	}
	if t.use32 {
		fwdEpilogue(t, tl.acc32, tl.sumX, lo, nR, t.kComp)
	} else {
		fwdEpilogue(t, tl.acc64, tl.sumX, lo, nR, t.kComp)
	}
	fwdTilePool.Put(tl)
}

// transU8Run carries the tiled full-matrix transpose of the row-major
// adapters.
type transU8Run struct {
	dst, src   []uint8
	rows, cols int
}

func (t *transU8Run) RunRange(lo, hi int) {
	transposeU8Tiles(t.dst, t.src, t.rows, t.cols, lo, hi)
}

// bwdTransOutRun is BackwardGEMM's transpose of dxT back to row-major,
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

// bwdGradRun is the big tiers' per-channel scan of the upstream
// gradient, a block of output channels per work item: gsum[oc] (the
// bias gradient, ascending r like the layers' original loop) and the
// pre-scaled row gsT[oc][r] = dy[r][oc]*s_w[oc] of the dX sweep. dy is
// NCHW planes of hw positions (see backwardT).
type bwdGradRun struct {
	s              *KernelScratch
	gsum, dy       []float32
	rows, outC, hw int
}

func (t *bwdGradRun) RunRange(lo, hi int) {
	s := t.s
	for oc := lo; oc < hi; oc++ {
		gp := s.gsT[oc*t.rows : (oc+1)*t.rows]
		sw := s.swc[oc]
		// j walks channel oc's plane of each image in turn: hw
		// positions, then on to the next image's.
		j, p := oc*t.hw, 0
		var sum float32
		for r := range gp {
			g := t.dy[j]
			sum += g
			gp[r] = g * sw
			j++
			if p++; p == t.hw {
				j, p = j+(t.outC-1)*t.hw, 0
			}
		}
		t.gsum[oc] = sum
	}
}

// bwdDyRRun copies rows [lo, hi) of the NCHW upstream gradient into dyR,
// the row-major (rows x ld) matrix whose rows the dW sweep loads as
// lane vectors, spare lanes zero. A work item owns whole rows of dyR,
// so no two workers write one cache line but at a block's edges.
type bwdDyRRun struct {
	dyR, dy      []float32
	outC, ld, hw int
}

func (t *bwdDyRRun) RunRange(lo, hi int) {
	if t.ld > t.outC {
		clear(t.dyR[lo*t.ld : hi*t.ld])
	}
	for r := lo; r < hi; {
		img, p := r/t.hw, r%t.hw
		n := min(t.hw-p, hi-r) // the block's positions in image img
		for oc := 0; oc < t.outC; oc++ {
			d := t.dyR[r*t.ld+oc:]
			for q, g := range t.dy[(img*t.outC+oc)*t.hw+p:][:n] {
				d[q*t.ld] = g
			}
		}
		r += n
	}
}

// bwdDWRun is the tiered dW sweep, a block of k columns per work item
// (so a narrow layer still fills every core): the dispatched row's
// oc-lane kernel into dwT (k x ld, see bwdDWAffine), then the clip/scale
// epilogue into dw.
type bwdDWRun struct {
	op         *Op
	s          *KernelScratch
	dw         []float32
	xT, wq     []uint8
	wClip      []bool
	rows, outC int
	ld, k      int
	zx, scale  float32
	tier       *bwdSweep
}

func (t *bwdDWRun) RunRange(lo, hi int) {
	t.tier.dw(t.op, t.s, t.xT, t.wq, lo, hi, t.rows, t.outC, t.ld, t.k, t.zx)
	for i := lo; i < hi; i++ {
		for oc, v := range t.s.dwT[i*t.ld : i*t.ld+t.outC] {
			if t.wClip[oc*t.k+i] {
				v = 0
			} else {
				v *= t.scale
			}
			t.dw[oc*t.k+i] = v
		}
	}
}

// bwdDXRun is the tiered dX sweep over k columns.
type bwdDXRun struct {
	op            *Op
	s             *KernelScratch
	dxT           []float32
	xT, wq        []uint8
	rows, outC, k int
	tier          *bwdSweep
}

func (t *bwdDXRun) RunRange(lo, hi int) {
	t.tier.dx(t.op, t.s, t.dxT, t.xT, t.wq, lo, hi, t.rows, t.outC, t.k)
}

// bwdSmallRun is the small tier's sweep over k columns: both gradients
// of a column block in one walk of each channel's nonzero list (see
// nonzeros). The summands and orders are the reference's: channel
// oc's list is row-ascending, so dw[oc][i] accumulates over ascending
// r, and oc is the outermost loop, so every dxT[i][r] accumulates over
// ascending oc; the hoisted padded rows hold the table entries
// Grads.DW/DX[w<<B|x] themselves.
type bwdSmallRun struct {
	op            *Op
	s             *KernelScratch
	dw, dxT       []float32
	xT, wq        []uint8
	wClip         []bool
	rows, outC, k int
	zx, scale     float32
}

func (t *bwdSmallRun) RunRange(lo, hi int) {
	s, rows, k := t.s, t.rows, t.k
	gwPad, gxPad := t.op.gwPad, t.op.gxPad
	clear(t.dxT[lo*rows : hi*rows])
	for oc := 0; oc < t.outC; oc++ {
		nzR := s.nz.r[s.nz.off[oc]:s.nz.off[oc+1]]
		nzG := s.nz.g[s.nz.off[oc]:s.nz.off[oc+1]][:len(nzR)]
		sw, zw := s.swc[oc], s.zwc[oc]
		for i := lo; i < hi; i++ {
			row := int(t.wq[oc*k+i]) * padStride
			gw := gwPad[row : row+padStride]
			gx := gxPad[row : row+padStride]
			xcol := t.xT[i*rows : (i+1)*rows]
			dcol := t.dxT[i*rows : (i+1)*rows]
			var acc float32
			for j, r := range nzR {
				g, xv := nzG[j], xcol[r]
				acc += g * (gw[xv] - t.zx)
				dcol[r] += g * sw * (gx[xv] - zw)
			}
			if t.wClip[oc*k+i] {
				acc = 0
			} else {
				acc *= t.scale
			}
			t.dw[oc*k+i] = acc
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
// through the arena's runner, alloc-free. per is the elements of one
// image (1 for a weight tensor): the workers' shares are whole images.
func (s *KernelScratch) quantizeWithClip(q []uint8, clip []bool, data []float32, p quant.Params, per int) {
	s.qcRun = quantClipRun{q: q, clip: clip, data: data, p: p}
	tensor.ParallelImagesOn(len(data), per, 4096, &s.qcRun)
}

// maskClipped zeroes the entries of grad whose forward operand was
// clamped during quantization (the straight-through mask), per
// elements to an image.
func (s *KernelScratch) maskClipped(grad []float32, clip []bool, per int) {
	s.maskRun = clipMaskRun{grad: grad, clip: clip}
	tensor.ParallelImagesOn(len(grad), per, 16384, &s.maskRun)
}

// transposeU8 writes the (rows x cols) matrix src into dst in
// (cols x rows) layout through the arena's runner.
func (s *KernelScratch) transposeU8(dst, src []uint8, rows, cols int) {
	s.tU8Run = transU8Run{dst: dst, src: src, rows: rows, cols: cols}
	tensor.ParallelBlocksOn(cols, transTile, &s.tU8Run)
}

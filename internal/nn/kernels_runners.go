package nn

import (
	"math"

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
	tl := t.claimTile()
	nR := hi - lo
	ld := t.tier.stride(nR)
	tl.xt = grow(tl.xt, fwdKTile*ld)
	tl.sumX = grow(tl.sumX, nR)
	clear(tl.sumX)
	if t.use32 {
		tl.acc32 = grow(tl.acc32, t.outC*ld)
		clear(tl.acc32)
	} else {
		tl.acc64 = grow(tl.acc64, t.outC*ld)
		clear(tl.acc64)
	}
	for kb := 0; kb < t.k; kb += fwdKTile {
		nK := min(t.k-kb, fwdKTile)
		loadTile(tl.xt, tl.sumX, t.xT, t.rows, lo, nR, ld, kb, nK)
		t.tier.accum(t, tl, ld, kb, nK)
	}
	if t.use32 {
		fwdEpilogue(t, tl.acc32, tl.sumX, lo, nR, ld, t.kComp)
	} else {
		fwdEpilogue(t, tl.acc64, tl.sumX, lo, nR, ld, t.kComp)
	}
	tl.busy.Store(false)
}

// claimTile marks one of the tiles forwardT holds busy and returns it.
// forwardT holds one per goroutine that can run a row block at once,
// so a free one is always there.
func (t *fwdTileRun) claimTile() *fwdTile {
	for _, tl := range t.s.tiles {
		if tl.busy.CompareAndSwap(false, true) {
			return tl
		}
	}
	panic("nn: more concurrent forward row blocks than held tiles")
}

// transU8Run carries the tiled full-matrix transpose of the skinny
// row's weight levels (weightSide.wqT).
type transU8Run struct {
	dst, src       []uint8
	rows, cols, ld int
}

func (t *transU8Run) RunRange(lo, hi int) {
	transposeU8Tiles(t.dst, t.src, t.rows, t.cols, t.ld, lo, hi)
}

// bwdGradRun is the big tiers' per-channel scan of the upstream
// gradient, a block of output channels per work item: each slice's
// column sum over ascending r added into its db[oc] (s.grads, the bias
// gradient) and the pre-scaled row gsT[oc][r] = dy[r][oc]*s_w of
// the dX sweep. dy is NCHW planes of hw positions (see backwardT).
type bwdGradRun struct {
	s              *KernelScratch
	dy             []float32
	rows, outC, hw int
}

func (t *bwdGradRun) RunRange(lo, hi int) {
	s, cuts, sw := t.s, t.s.grads.cuts, t.s.sw
	for oc := lo; oc < hi; oc++ {
		gp := s.gsT[oc*t.rows : (oc+1)*t.rows]
		// j walks channel oc's plane of each image in turn: hw
		// positions, then on to the next image's.
		j, p := oc*t.hw, 0
		for sl, db := range s.grads.db {
			var sum float32
			for r, end := cuts[sl], cuts[sl+1]; r < end; r++ {
				g := t.dy[j]
				sum += g
				gp[r] = g * sw
				j++
				if p++; p == t.hw {
					j, p = j+(t.outC-1)*t.hw, 0
				}
			}
			db[oc] += sum
		}
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

// bwdDWRun is the tiered dW sweep, a block of k columns of w's view per
// work item (so a narrow layer still fills every core): the dispatched
// row's oc-lane kernel into dwT (kl x ld per slice, see bwdDWAffine),
// then the clip/scale epilogue, which adds each entry into its weight
// column of the slice's dw (s.grads).
type bwdDWRun struct {
	op        *Op
	s         *KernelScratch
	xT        []uint8
	w         *weightSide
	rows, ld  int
	zx, scale float32
	tier      *bwdSweep
}

func (t *bwdDWRun) RunRange(lo, hi int) {
	w, g, ld, scale := t.w, &t.s.grads, t.ld, t.scale
	t.tier.dw(t.op, t.s, t.xT, w.lq, lo, hi, t.rows, g.cuts, w.outC, ld, w.kl, t.zx)
	for sl, dw := range g.dw {
		for i := lo; i < hi; i++ {
			col := w.col(i)
			for oc, v := range t.s.dwT[(sl*w.kl+i)*ld:][:w.outC] {
				j := oc*w.k + col
				if w.wClip[j] {
					v = 0
				} else {
					v *= scale
				}
				dw[j] += v
			}
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

// bwdSmallRun is the small tier's sweep over the k columns of w's view:
// both gradients of a column block in one walk of each channel's nonzero
// lists (see nonzeros), dW alone when dxT is nil. The summands and orders
// are the reference's: channel oc's list of a slice is row-ascending, so
// dW[oc][i] accumulates over the slice's ascending r before it is added
// into the slice's dw, and oc is the outermost loop, so every dxT[i][r]
// accumulates over ascending oc; the hoisted padded rows hold the table
// entries Grads.DW/DX[w<<B|x] themselves.
type bwdSmallRun struct {
	op        *Op
	s         *KernelScratch
	dxT       []float32
	xT        []uint8
	w         *weightSide
	rows      int
	zx, scale float32
}

func (t *bwdSmallRun) RunRange(lo, hi int) {
	s, w, rows, k := t.s, t.w, t.rows, t.w.kl
	gwPad, gxPad := t.op.gwPad, t.op.gxPad
	sw, zw := s.sw, s.zwf
	if t.dxT != nil {
		clear(t.dxT[lo*rows : hi*rows])
	}
	for oc := 0; oc < w.outC; oc++ {
		for sl, dw := range s.grads.dw {
			nzR, nzG := s.nz.list(oc, sl)
			nzG = nzG[:len(nzR)]
			for i := lo; i < hi; i++ {
				row := int(w.lq[oc*k+i]) * padStride
				gw := gwPad[row : row+padStride]
				xcol := t.xT[i*rows : (i+1)*rows]
				var acc float32
				if t.dxT == nil {
					for j, r := range nzR {
						acc += float32(nzG[j] * (gw[xcol[r]] - t.zx))
					}
				} else {
					gx := gxPad[row : row+padStride]
					dcol := t.dxT[i*rows : (i+1)*rows]
					for j, r := range nzR {
						g, xv := nzG[j], xcol[r]
						acc += float32(g * (gw[xv] - t.zx))
						dcol[r] += float32(g * sw * (gx[xv] - zw))
					}
				}
				col := oc*w.k + w.col(i)
				if w.wClip[col] {
					acc = 0
				} else {
					acc *= t.scale
				}
				dw[col] += acc
			}
		}
	}
}

// bwdDeadRun adds the weight gradient of the dead columns (see
// weightSide.cut) into each slice's dw (g), a block of output channels
// per work item. Such a column's operand is the zero point zx in every row, so its
// gradient is the dense dW kernels' own expression
// sum_r fl(dy[r][oc] * t), t = fl(DW[wq][zx] - zx), r ascending from +0
// — the small row's sum too, whose skipped zero gradients add ±0 to it.
// It depends on the channel and t alone, and t on the column's level
// alone: the levels whose t has the same bits share a lane (a
// gradient table's column zx holds a handful of distinct values; STE's
// holds one), each lane's sum is taken once per channel, scaled once,
// and added into every dead column of the channel whose level maps to
// it — through the sweeps' clip/scale epilogue, unchanged. One pass
// serves every backward row.
type bwdDeadRun struct {
	op    *Op
	w     *weightSide
	g     *gradCuts
	dy    []float32
	hw    int
	scale float32
	// lane maps a weight level to its lane, tv holds each lane's t.
	lane []uint8
	tv   []float32
}

// setLanes fills lane and tv from the DW table's column zx: one lane
// per distinct bit pattern of t, in level order.
func (t *bwdDeadRun) setLanes(zx int32) {
	gw, z := t.op.gwPad, float32(zx)
	t.lane = grow(t.lane, 1<<t.op.Bits)
	t.tv = grow(t.tv, len(t.lane))[:0]
	for l := range t.lane {
		v := gw[l*padStride+int(zx)] - z
		u := 0
		for u < len(t.tv) && math.Float32bits(t.tv[u]) != math.Float32bits(v) {
			u++
		}
		if u == len(t.tv) {
			t.tv = append(t.tv, v)
		}
		t.lane[l] = uint8(u)
	}
}

func (t *bwdDeadRun) RunRange(lo, hi int) {
	w, hw, tv, cuts := t.w, t.hw, t.tv, t.g.cuts
	var acc, v [padStride]float32
	a := acc[:len(tv)]
	for oc := lo; oc < hi; oc++ {
		// j walks channel oc's plane of each image in turn (as in
		// bwdGradRun).
		j, p := oc*hw, 0
		wr, clip := w.wq[oc*w.k:(oc+1)*w.k], w.wClip[oc*w.k:(oc+1)*w.k]
		for sl, dw := range t.g.dw {
			clear(a)
			for r, end := cuts[sl], cuts[sl+1]; r < end; r++ {
				g := t.dy[j]
				for u, tu := range tv {
					a[u] += float32(g * tu)
				}
				j++
				if p++; p == hw {
					j, p = j+(w.outC-1)*hw, 0
				}
			}
			// v[l] is the scaled sum of level l's lane.
			for l, u := range t.lane {
				v[l] = a[u] * t.scale
			}
			dwr := dw[oc*w.k : (oc+1)*w.k]
			for _, i := range w.dead {
				x := v[wr[i]]
				if clip[i] {
					x = 0
				}
				dwr[i] += x
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
// (cols x rows) layout, its rows ld apart, through the arena's runner.
func (s *KernelScratch) transposeU8(dst, src []uint8, rows, cols, ld int) {
	s.tU8Run = transU8Run{dst: dst, src: src, rows: rows, cols: cols, ld: ld}
	tensor.ParallelBlocksOn(cols, transTile, &s.tU8Run)
}

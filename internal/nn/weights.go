package nn

import (
	"fmt"
	"slices"

	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// weightSide is the weight-side state of an approximate layer's GEMMs:
// everything they derive from the weights alone — the tensor's one
// quantization scale and zero point, the levels with their clip flags,
// the Eq. (8) per-channel level sums, and the forms of the levels single
// forward tiers scan.
// None of it depends on the input values, so a layer builds it once per
// weight version (see Param) and every Forward, Infer and Backward until
// the next write reads it: training misses once per step, evaluation and
// serving always hit, which is how the weight-stationary accelerators
// the paper targets run. Only the input's plane size matters, through
// the taps that see nothing but padding: the GEMMs' view leaves their
// columns out (cut), and it is kept per version and live-tap layout.
type weightSide struct {
	// The build stands while the layer's weight Param, its version and
	// the op (its Bits fix the levels, its arithForm the tier forms) are
	// the ones it was made from. The zero key matches no Param, and SetOp
	// needs no hook.
	// clipped records that the build filled wClip: Infer's does not (a
	// model that only serves holds no clip flags), so a Forward that
	// follows one on the same version builds again.
	param   *Param
	version uint64
	op      *Op
	clipped bool

	outC, k int
	pw      quant.Params
	wq      []uint8
	wClip   []bool
	sumW    []int64

	// The GEMMs' view of the levels (see cut): wq itself, or — where some
	// kernel taps see only padding (tensor.ConvGeom.LiveTaps) — its kl
	// live columns, (outC x kl), held in liveq. taps and nTaps are the
	// layout the last cut found: cols names the weight column of each
	// live one and dead the columns left out, ascending, both empty when
	// every tap is live. viewOK records that lq is cut from this build's
	// levels for that layout.
	lq, liveq   []uint8
	kl          int
	cols, dead  []int32
	taps, probe []int
	nTaps       int
	viewOK      bool
	// d holds the dead columns' share of the forward sums for the zero
	// point dZx while dOK (see deadSums).
	d   []int64
	dZx int32
	dOK bool

	// Tier-owned forms of the view lq, built by the tier's setup on its
	// first GEMM after a rebuild or cut: the VPMADDUBSW coefficient
	// stream of the arith row's pair kernel (outC rows of ceil(kl/2) x nT
	// byte pairs and pairSlack bytes, on the worker pool) and the k-major
	// copy the skinny row's lanes load ((kl+1) x padLanes(outC), zero in
	// the pad and in the last row: the virtual partner column of an odd
	// kl).
	cwp, wqT     []uint8
	cwpOK, wqTOK bool

	// chk and chkD hold what a paranoid hit re-derives.
	chk  []uint8
	chkD []int64
}

// sync brings w up to date with the layer's weights: a no-op when the
// key stands, otherwise the one place weights are calibrated and
// quantized. withClip asks for the clip flags Backward masks with.
func (w *weightSide) sync(layer string, s *KernelScratch, p *Param, op *Op, withClip bool, outC, k int) {
	if w.param == p && w.version == p.version && w.op == op && (w.clipped || !withClip) {
		weightPrepHit.Inc()
		if paranoid {
			w.recheck(layer, s)
		}
		return
	}
	weightPrepMiss.Inc()
	w.param, w.version, w.op, w.clipped = p, p.version, op, withClip
	w.wq = grow(w.wq, outC*k)
	var clip []bool
	if withClip {
		w.wClip = grow(w.wClip, outC*k)
		clip = w.wClip
	}
	w.pw = s.quantizeWeights(w.wq, clip, p.Value.Data, op.Bits)
	w.derive(s, outC, k)
}

// adopt takes levels, and the clip flags if the caller has them, that a
// caller quantized itself (the exported GEMMs). A forward caller
// derives the level sums too (sumLevels); the backward reads none.
func (w *weightSide) adopt(wq []uint8, wClip []bool, pw quant.Params, outC, k int) {
	w.wq, w.wClip, w.pw = wq, wClip, pw
	w.reset(outC, k)
}

// derive computes what follows from w.wq: the level sums now; the view,
// wq whole until a layer cuts it; the tier forms when a tier first asks.
func (w *weightSide) derive(s *KernelScratch, outC, k int) {
	w.reset(outC, k)
	w.sumLevels(s)
}

// reset drops what was derived from the previous levels.
func (w *weightSide) reset(outC, k int) {
	w.outC, w.k = outC, k
	w.lq, w.kl, w.viewOK = w.wq, k, false
	w.cwpOK, w.wqTOK, w.dOK = false, false, false
}

// sumLevels computes the Eq. (8) per-channel level sums.
func (w *weightSide) sumLevels(s *KernelScratch) {
	w.sumW = grow(w.sumW, w.outC)
	s.levelSums(w.sumW, w.wq, w.outC, w.k)
}

// cut makes the GEMMs' view the live columns of a conv of geometry g,
// re-cutting only when the levels or the live taps changed. A dead
// tap's patch-matrix row would hold the input zero point at every
// position (tensor.Im2ColTJob.RunLive leaves it out), so its columns
// reduce to per-channel constants: deadSums in the forward sums,
// bwdDeadRun in the weight gradient; the dX sweep never needs them,
// because col2im reads nothing of a dead row.
func (w *weightSide) cut(g tensor.ConvGeom) {
	w.probe = g.LiveTaps(w.probe)
	if nt := g.KH * g.KW; w.nTaps != nt || !slices.Equal(w.probe, w.taps) {
		w.taps, w.nTaps = append(w.taps[:0], w.probe...), nt
		w.cols, w.dead = w.cols[:0], w.dead[:0]
		for i := 0; i < w.k && len(w.taps) < nt; i++ {
			if _, live := slices.BinarySearch(w.taps, i%nt); live {
				w.cols = append(w.cols, int32(i))
			} else {
				w.dead = append(w.dead, int32(i))
			}
		}
		w.viewOK = false
	}
	if w.viewOK {
		return
	}
	w.viewOK = true
	w.cwpOK, w.wqTOK, w.dOK = false, false, false
	w.lq, w.kl = w.wq, w.k
	if len(w.dead) > 0 {
		w.kl = len(w.cols)
		w.liveq = grow(w.liveq, w.outC*w.kl)
		w.lq = w.liveq
		w.gatherLive(w.lq)
	}
}

// col is the weight column of the view's column i.
func (w *weightSide) col(i int) int {
	if len(w.dead) == 0 {
		return i
	}
	return int(w.cols[i])
}

// gatherLive writes the live columns of wq into dst (outC x kl).
func (w *weightSide) gatherLive(dst []uint8) {
	for oc := 0; oc < w.outC; oc++ {
		wr, lr := w.wq[oc*w.k:(oc+1)*w.k], dst[oc*w.kl:(oc+1)*w.kl]
		for j, i := range w.cols {
			lr[j] = wr[i]
		}
	}
}

// deadSums returns, per output channel, the dead columns' share of
// every forward sum at input zero point zx — D[oc], the sum over the
// channel's dead columns of AM(wq[oc][i], zx), each term the product
// every forward tier adds for that entry — or nil without dead columns.
// It is kept until the view or the zero point changes. op's padded
// tables must exist.
func (w *weightSide) deadSums(s *KernelScratch, op *Op, zx int32) []int64 {
	if len(w.dead) == 0 {
		return nil
	}
	if !w.dOK || w.dZx != zx {
		w.d = grow(w.d, w.outC)
		s.deadSumRun.set(w, w.d, op, zx)
		tensor.ParallelRowsOn(w.outC, &s.deadSumRun)
		w.dZx, w.dOK = zx, true
	}
	return w.d
}

// deadSumRun sums the dead columns' products per output channel into d,
// a block of channels per work item.
type deadSumRun struct {
	w   *weightSide
	d   []int64
	col []int64 // AM(l, zx) for every level l
}

func (t *deadSumRun) set(w *weightSide, d []int64, op *Op, zx int32) {
	t.w, t.d = w, d
	t.col = grow(t.col, 1<<op.Bits)
	for l := range t.col {
		t.col[l] = op.product(uint8(l), uint8(zx))
	}
}

func (t *deadSumRun) RunRange(lo, hi int) {
	w := t.w
	for oc := lo; oc < hi; oc++ {
		wr := w.wq[oc*w.k : (oc+1)*w.k]
		var sum int64
		for _, i := range w.dead {
			sum += t.col[wr[i]]
		}
		t.d[oc] = sum
	}
}

// recheck is the nnparanoid leg of a hit: quantize the float weights
// again and panic if the kept levels are not what they give — some
// writer of Value skipped Touch — or if the live view or the dead
// columns' sums are not what the levels give.
func (w *weightSide) recheck(layer string, s *KernelScratch) {
	w.chk = grow(w.chk, len(w.wq))
	if p := s.quantizeWeights(w.chk, nil, w.param.Value.Data, w.op.Bits); p != w.pw {
		panic(fmt.Sprintf("nn: %s: weights changed under version %d of %s without Touch (quantization params: kept %+v, now %+v)",
			layer, w.version, w.param.Name, w.pw, p))
	}
	for i, q := range w.chk {
		if q != w.wq[i] {
			panic(fmt.Sprintf("nn: %s: weights changed under version %d of %s without Touch (weight %d: kept level %d, now %d)",
				layer, w.version, w.param.Name, i, w.wq[i], q))
		}
	}
	w.recheckView(layer, s)
}

// quantizeWeights calibrates one range for the weight tensor, quantizes
// it into wq, recording the clamped entries in clip unless it is nil,
// and returns the parameters.
func (s *KernelScratch) quantizeWeights(wq []uint8, clip []bool, data []float32, bits int) quant.Params {
	mn, mx := tensor.MinMax(data)
	p := quant.Calibrate(mn, mx, bits)
	s.quantizeWithClip(wq, clip, data, p)
	return p
}

// recheckView re-derives the live view and the dead columns' sums from
// the kept levels and panics on a mismatch.
func (w *weightSide) recheckView(layer string, s *KernelScratch) {
	if len(w.dead) == 0 {
		return
	}
	w.chk = grow(w.chk, len(w.lq))
	w.gatherLive(w.chk)
	if !slices.Equal(w.chk, w.lq) {
		panic(fmt.Sprintf("nn: %s: live weight columns of version %d of %s differ from its levels", layer, w.version, w.param.Name))
	}
	if w.dOK {
		w.chkD = grow(w.chkD, w.outC)
		s.deadSumRun.set(w, w.chkD, w.op, w.dZx)
		s.deadSumRun.RunRange(0, w.outC)
		if !slices.Equal(w.chkD, w.d) {
			panic(fmt.Sprintf("nn: %s: dead-tap sums of version %d of %s at zero point %d differ from its levels", layer, w.version, w.param.Name, w.dZx))
		}
	}
}

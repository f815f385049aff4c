package nn

import (
	"fmt"

	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// weightSide is the weight-side state of an approximate layer's GEMMs:
// everything they derive from the weights alone — the quantization
// parameters, the levels with their clip flags, the Eq. (8) per-channel
// level sums, and the forms of the levels single forward tiers scan.
// None of it depends on the input, so a layer builds it once per weight
// version (see Param) and every Forward, Infer and Backward until the
// next write reads it: training misses once per step, evaluation and
// serving always hit, which is how the weight-stationary accelerators
// the paper targets run.
type weightSide struct {
	// The build stands while the layer's weight Param, its version, the
	// op (its Bits fix the levels, its arithForm the tier forms) and the
	// quantization scheme are the ones it was made from. The zero key
	// matches no Param, and SetOp or a PerChannel flip needs no hook.
	// clipped records that the build filled wClip: Infer's does not (a
	// model that only serves holds no clip flags), so a Forward that
	// follows one on the same version builds again.
	param      *Param
	version    uint64
	op         *Op
	perChannel bool
	clipped    bool

	outC, k int
	pw      []quant.Params
	wq      []uint8
	wClip   []bool
	sumW    []int64

	// Tier-owned forms of wq, built by the tier's setup on its first
	// GEMM after a rebuild: the VPMADDUBSW coefficient stream of the
	// arith row's pair kernel (outC rows of ceil(k/2) x nT byte pairs and
	// pairSlack bytes, on the worker pool) and the
	// k-major copy the skinny row's lanes load ((k+1) x outC, the last
	// row zero: the virtual partner column of an odd k).
	cwp, wqT     []uint8
	cwpOK, wqTOK bool

	// chk and chkPW hold what a paranoid hit re-derives.
	chk   []uint8
	chkPW []quant.Params
}

// sync brings w up to date with the layer's weights: a no-op when the
// key stands, otherwise the one place weights are calibrated and
// quantized. withClip asks for the clip flags Backward masks with.
func (w *weightSide) sync(layer string, s *KernelScratch, p *Param, op *Op, perChannel, withClip bool, outC, k int) {
	if w.param == p && w.version == p.version && w.op == op && w.perChannel == perChannel && (w.clipped || !withClip) {
		weightPrepHit.Inc()
		if paranoid {
			w.recheck(layer, s)
		}
		return
	}
	weightPrepMiss.Inc()
	w.param, w.version, w.op, w.perChannel, w.clipped = p, p.version, op, perChannel, withClip
	w.wq = grow(w.wq, outC*k)
	var clip []bool
	if withClip {
		w.wClip = grow(w.wClip, outC*k)
		clip = w.wClip
	}
	w.pw = s.quantizeWeights(w.pw, w.wq, clip, p.Value.Data, op.Bits, perChannel, outC, k)
	w.derive(s, outC, k)
}

// adopt takes levels a caller quantized itself (the row-major adapters).
func (w *weightSide) adopt(s *KernelScratch, wq []uint8, pw []quant.Params, outC, k int) {
	w.wq, w.pw = wq, pw
	w.derive(s, outC, k)
}

// derive computes what follows from w.wq: the level sums now, the tier
// forms when a tier first asks.
func (w *weightSide) derive(s *KernelScratch, outC, k int) {
	w.outC, w.k = outC, k
	w.sumW = grow(w.sumW, outC)
	s.levelSums(w.sumW, w.wq, outC, k)
	w.cwpOK, w.wqTOK = false, false
}

// recheck is the nnparanoid leg of a hit: quantize the float weights
// again and panic if the kept levels are not what they give — some
// writer of Value skipped Touch.
func (w *weightSide) recheck(layer string, s *KernelScratch) {
	w.chk = grow(w.chk, len(w.wq))
	w.chkPW = s.quantizeWeights(w.chkPW, w.chk, nil, w.param.Value.Data, w.op.Bits, w.perChannel, w.outC, w.k)
	for i, p := range w.chkPW {
		if p != w.pw[i] {
			panic(fmt.Sprintf("nn: %s: weights changed under version %d of %s without Touch (quantization params %d: kept %+v, now %+v)",
				layer, w.version, w.param.Name, i, w.pw[i], p))
		}
	}
	for i, q := range w.chk {
		if q != w.wq[i] {
			panic(fmt.Sprintf("nn: %s: weights changed under version %d of %s without Touch (weight %d: kept level %d, now %d)",
				layer, w.version, w.param.Name, i, w.wq[i], q))
		}
	}
}

// quantizeWeights calibrates the (outC x k) weight matrix — one range
// for the tensor, or one per output channel — and quantizes it into wq,
// recording the clamped entries in clip unless it is nil. It returns pw
// resized to the parameter sets it filled.
func (s *KernelScratch) quantizeWeights(pw []quant.Params, wq []uint8, clip []bool, data []float32, bits int, perChannel bool, outC, k int) []quant.Params {
	if !perChannel {
		pw = grow(pw, 1)
		mn, mx := tensor.MinMax(data)
		pw[0] = quant.Calibrate(mn, mx, bits)
		s.quantizeWithClip(wq, clip, data, pw[0], 1)
		return pw
	}
	pw = grow(pw, outC)
	for oc := 0; oc < outC; oc++ {
		ws := data[oc*k : (oc+1)*k]
		mn, mx := tensor.MinMax(ws)
		pw[oc] = quant.Calibrate(mn, mx, bits)
		var cl []bool
		if clip != nil {
			cl = clip[oc*k : (oc+1)*k]
		}
		s.quantizeWithClip(wq[oc*k:(oc+1)*k], cl, ws, pw[oc], 1)
	}
	return pw
}

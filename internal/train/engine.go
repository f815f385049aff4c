package train

import (
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// DefaultSliceRows is the slice granularity of every model. The
// minibatch is cut into fixed slices of this many rows regardless of
// the shard count, so the set of partial sums — the gradients' and,
// with BatchNorm, the batch statistics' — and therefore every rounding
// decision in their reduction trees is identical for every P. That is
// what makes `-shards P` bit-identical to `-shards 1` instead of merely
// close: floating-point addition is not associative, so a P-dependent
// partition could not reproduce the P=1 trajectory. The distributed
// coordinator (internal/dist) plans through the same Slices, so
// `-workers N` joins the same equivalence class.
const DefaultSliceRows = 8

// Replica is one model copy as every training topology drives it: each
// ShardedStep replica (Run's one replica at Shards 1), the dist
// coordinator's primary and each dist worker. One walk finds its
// approximate layers (whose observers it defers) and its BatchNorm
// layers, and it packs parameters back to back in Params() order — the
// layout of every gradient slot and of the dist wire format, so a slice
// computed by any replica anywhere drops into the same fold
// untranslated.
type Replica struct {
	model    nn.Layer
	params   []*nn.Param
	offsets  []int // flat offset of each param in a packed buffer
	numel    int   // total parameter scalars
	observed []nn.ObservedLayer
	bns      []*nn.BatchNorm2D
	dy       *tensor.Tensor // loss-gradient buffer
	out, d   tensor.Tensor  // one slice's rows of the logits and of dy
}

// NewReplica wraps model and defers its observers: its approximate
// layers quantize every step with the pre-step observer state and only
// record the raw range of their input, which Slices.Fold merges and
// Observe folds in after the step; Detach turns that off again.
func NewReplica(model nn.Layer) *Replica {
	r := &Replica{model: model, params: model.Params()}
	r.offsets = make([]int, len(r.params))
	for i, p := range r.params {
		r.offsets[i] = r.numel
		r.numel += p.Value.Numel()
	}
	nn.VisitLayers(model, func(l nn.Layer) {
		if ol, ok := l.(nn.ObservedLayer); ok {
			r.observed = append(r.observed, ol)
			ol.SetDeferObserve(true)
		}
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			r.bns = append(r.bns, bn)
		}
	})
	return r
}

// BatchNorms returns the model's BatchNorm layers in visit order: the
// positions a sync-BN group attaches to.
func (r *Replica) BatchNorms() []*nn.BatchNorm2D { return r.bns }

// RunSlices runs the slices [s0, s1) of set's plan, whose rows are x
// (labels y), as one training forward and one backward into their
// slots (nn.SetSlices), BatchNorm statistics summed per slice and
// folded through the layers' syncers (or locally, when the run is the
// whole plan): per slice the SUM of its row losses, each row's gradient
// scaled by 1/denom (the full batch's row count), and its packed
// parameter gradients summed over its rows alone; in slot s0,
// each observer's range over x, for NaN-free x the slices' ranges merged
// in ascending order as Fold merges slots (tensor.MinMax keeps the first
// of tied zeros), the run's other slots unseen. Replicas may fill
// distinct runs of one set concurrently.
func (r *Replica) RunSlices(set *Slices, s0, s1 int, x *tensor.Tensor, y []int, denom int) {
	nn.SetSlices(r.params, set.bounds[s0:s1+1], s0, set.grads[s0:s1])
	defer nn.SetSlices(r.params, nil, 0, nil)
	out := r.model.Forward(x, true)
	r.dy = tensor.Ensure(r.dy, out.Shape...)
	for s, base := s0, set.bounds[s0]; s < s1; s++ {
		lo, hi := set.bounds[s]-base, set.bounds[s+1]-base
		set.loss[s] = nn.SoftmaxCrossEntropySumInto(rowView(&r.d, r.dy, lo, hi), rowView(&r.out, out, lo, hi),
			y[lo:hi], denom)
	}
	r.model.Backward(r.dy)
	clear(set.seen[(s0+1)*set.nObs : s1*set.nObs])
	_, _, lo, hi, seen := set.Slot(s0)
	for i, ol := range r.observed {
		lo[i], hi[i], seen[i] = ol.DeferredRange()
	}
}

// rowView points v at rows [lo, hi) of the (N, C) matrix t.
func rowView(v, t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	c := t.Shape[1]
	v.Shape, v.Data = append(v.Shape[:0], hi-lo, c), t.Data[lo*c:hi*c]
	return v
}

// PackValues writes the parameter values into dst in the packed layout,
// growing it as needed, and returns it.
func (r *Replica) PackValues(dst []float32) []float32 {
	if cap(dst) < r.numel {
		dst = make([]float32, r.numel)
	}
	dst = dst[:r.numel]
	for i, p := range r.params {
		copy(dst[r.offsets[i]:], p.Value.Data)
	}
	return dst
}

// LoadValues overwrites the parameter values from the packed buffer src
// and marks every param written.
func (r *Replica) LoadValues(src []float32) {
	for i, p := range r.params {
		copy(p.Value.Data, src[r.offsets[i]:])
		p.Touch()
	}
}

// Observe folds the merged observer ranges that Fold leaves in slot 0
// of set into the replica's observers. Every replica starts a step with
// the same observer state and folds the same ranges, so they end it
// bit-identical with no observer broadcast.
func (r *Replica) Observe(set *Slices) {
	_, _, lo, hi, seen := set.Slot(0)
	for i, ol := range r.observed {
		if seen[i] {
			ol.ActivationObserver().ObserveRange(lo[i], hi[i])
		}
	}
}

// Detach returns the model to single-replica semantics: observers fold
// their own batches again and BatchNorm layers leave their sync groups.
func (r *Replica) Detach() {
	for _, ol := range r.observed {
		ol.SetDeferObserve(false)
	}
	for _, bn := range r.bns {
		bn.SetSyncGroup(nil)
	}
}

// Slices is one step's slice set: the plan that cuts the batch into
// slices and, per slice, a slot holding its loss sum, packed gradients
// and observer ranges (those of the run of slices it starts, see
// RunSlices). Fold reduces the slots in an order fixed by the
// plan alone, so which replica or worker filled which slot, and when,
// cannot change a bit of the result. The zero value is ready to Plan;
// the storage is reused across steps.
type Slices struct {
	bounds []int
	loss   []float64
	grads  [][]float32
	lo, hi []float32 // observer ranges, [slot*nObs + observer]
	seen   []bool
	nObs   int
}

// Plan cuts a batch of n rows into contiguous slices of
// DefaultSliceRows rows each (the last may be short) — a partition that
// depends on n alone — and sizes the slots for rep's layout, returning
// the slice boundaries (len S+1, valid until the next Plan).
func (ss *Slices) Plan(rep *Replica, n int) []int {
	ss.bounds = ss.bounds[:0]
	for lo := 0; lo < n; lo += DefaultSliceRows {
		ss.bounds = append(ss.bounds, lo)
	}
	ss.bounds = append(ss.bounds, n)
	S := len(ss.bounds) - 1
	for len(ss.grads) < S {
		ss.grads = append(ss.grads, make([]float32, rep.numel))
	}
	if cap(ss.loss) < S {
		ss.loss = make([]float64, S)
	}
	ss.loss = ss.loss[:S]
	ss.nObs = len(rep.observed)
	nRng := S * ss.nObs
	if cap(ss.lo) < nRng {
		ss.lo = make([]float32, nRng)
		ss.hi = make([]float32, nRng)
		ss.seen = make([]bool, nRng)
	}
	ss.lo, ss.hi, ss.seen = ss.lo[:nRng], ss.hi[:nRng], ss.seen[:nRng]
	return ss.bounds
}

// Run returns the slices [lo, hi) of the r-th of runs near-even
// contiguous runs of the plan: the split ShardedStep gives its replicas
// and a dist coordinator its workers.
func (ss *Slices) Run(r, runs int) (lo, hi int) {
	S := len(ss.bounds) - 1
	return r * S / runs, (r + 1) * S / runs
}

// Slot returns slot s's storage, for RunSlices and for a caller that
// moves slots across the network (a dist worker encoding its slice, the
// coordinator decoding it): the loss sum, the packed gradients, and per
// observer the range and whether it saw data.
func (ss *Slices) Slot(s int) (loss *float64, grads, lo, hi []float32, seen []bool) {
	o := s * ss.nObs
	return &ss.loss[s], ss.grads[s], ss.lo[o : o+ss.nObs], ss.hi[o : o+ss.nObs], ss.seen[o : o+ss.nObs]
}

// Fold reduces the planned slots into slot 0 and returns the batch's
// mean loss. The gradients fold with a fixed balanced binary tree
// (stride doubling over ascending slots) and land in primary's
// accumulators; the loss sums in ascending slot order; each observer's
// range becomes the exact min/max over the slots that saw data, an
// order-free merge, which Observe and the dist observe frame read from
// slot 0.
func (ss *Slices) Fold(primary *Replica) float64 {
	S := len(ss.bounds) - 1
	for stride := 1; stride < S; stride *= 2 {
		for s := 0; s+stride < S; s += 2 * stride {
			a, b := ss.grads[s], ss.grads[s+stride]
			for i, v := range b {
				a[i] += v
			}
		}
	}
	for i, p := range primary.params {
		copy(p.Grad.Data, ss.grads[0][primary.offsets[i]:])
	}
	var loss float64
	for _, l := range ss.loss {
		loss += l
	}
	for i := 0; i < ss.nObs; i++ {
		for j := ss.nObs + i; j < len(ss.lo); j += ss.nObs {
			switch {
			case !ss.seen[j]:
			case !ss.seen[i]:
				ss.lo[i], ss.hi[i], ss.seen[i] = ss.lo[j], ss.hi[j], true
			default:
				if ss.lo[j] < ss.lo[i] {
					ss.lo[i] = ss.lo[j]
				}
				if ss.hi[j] > ss.hi[i] {
					ss.hi[i] = ss.hi[j]
				}
			}
		}
	}
	return loss / float64(ss.bounds[S])
}

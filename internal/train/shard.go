package train

import (
	"fmt"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// DefaultSliceRows is the gradient-slice granularity for BN-free
// models. The minibatch is cut into fixed slices of this many rows
// regardless of the shard count, so the set of partial gradient sums —
// and therefore every float32 rounding decision in the reduction tree
// — is identical for every P. That is what makes `-shards P`
// bit-identical to `-shards 1` instead of merely close: floating-point
// addition is not associative, so a P-dependent partition could not
// reproduce the P=1 trajectory. The distributed coordinator
// (internal/dist) uses the same granularity so `-workers N` joins the
// same equivalence class.
const DefaultSliceRows = 8

// PlanSlices cuts a batch of n rows into fixed sliceRows-sized
// contiguous slices (the last slice may be short), returning the slice
// boundary offsets (len S+1). The partition depends only on n and
// sliceRows — never on the worker count — which is the root of the
// BN-free bit-identity guarantee (see DefaultSliceRows).
func PlanSlices(n, sliceRows int) []int {
	if sliceRows < 1 {
		sliceRows = DefaultSliceRows
	}
	s := (n + sliceRows - 1) / sliceRows
	bounds := make([]int, s+1)
	for i := 0; i < s; i++ {
		bounds[i] = i * sliceRows
	}
	bounds[s] = n
	return bounds
}

// PlanEvenSlices cuts a batch of n rows into parts near-even
// contiguous slices (capped at n), returning the boundary offsets (len
// S+1). Sync-BN models use exactly one slice per active participant,
// because every slice waits in the BN barriers and a participant
// cannot wait in two slices at once.
func PlanEvenSlices(n, parts int) []int {
	s := parts
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	bounds := make([]int, s+1)
	for i := 0; i <= s; i++ {
		bounds[i] = i * n / s
	}
	return bounds
}

// ParamLayout returns the flat offset of each parameter in a packed
// gradient-slice buffer plus the total scalar count. Both the sharded
// trainer and the distributed wire format use this layout, so a slice
// buffer produced by a remote worker drops into the same reduction
// tree untranslated.
func ParamLayout(params []*nn.Param) (offsets []int, numel int) {
	offsets = make([]int, len(params))
	for i, p := range params {
		offsets[i] = numel
		numel += p.Value.Numel()
	}
	return offsets, numel
}

// FoldSliceTree folds the S slice gradient buffers with a fixed
// balanced binary tree (stride doubling over ascending slice indices)
// into slices[0]. The tree shape depends only on S — never on which
// worker produced which slice or in what order results arrived — so
// the reduction is deterministic and, for a fixed slice partition,
// bit-identical regardless of scheduling.
func FoldSliceTree(slices [][]float32) {
	S := len(slices)
	for stride := 1; stride < S; stride *= 2 {
		for s := 0; s+stride < S; s += 2 * stride {
			a, b := slices[s], slices[s+stride]
			for i, v := range b {
				a[i] += v
			}
		}
	}
}

// MergeSliceRanges merges per-observer raw activation ranges recorded
// by S slices (slice-major layout: index s*nObs+i) with exact min/max
// — an order-independent fold — and calls apply once per observer
// index that saw data. Both the in-process sharded step and the
// distributed coordinator drive their deferred-observe merges through
// this helper, so the folded quant ranges are identical by
// construction.
func MergeSliceRanges(S, nObs int, mn, mx []float32, ok []bool, apply func(i int, mn, mx float32)) {
	for i := 0; i < nObs; i++ {
		var lo, hi float32
		have := false
		for s := 0; s < S; s++ {
			if !ok[s*nObs+i] {
				continue
			}
			smn, smx := mn[s*nObs+i], mx[s*nObs+i]
			if !have {
				lo, hi, have = smn, smx, true
				continue
			}
			if smn < lo {
				lo = smn
			}
			if smx > hi {
				hi = smx
			}
		}
		if have {
			apply(i, lo, hi)
		}
	}
}

// ShardedConfig parameterizes NewShardedStep.
type ShardedConfig struct {
	// Shards is the replica/worker count P (minimum 1).
	Shards int
	// SliceRows overrides the BN-free gradient-slice granularity
	// (default 8 rows per slice). Models with BatchNorm ignore it:
	// sync-BN requires exactly one slice per active replica.
	SliceRows int
}

// ShardedStep is the data-parallel sharded trainer: one training step
// splits the minibatch's rows across P model replicas (deep clones via
// models.Clone), runs forward/backward concurrently, and reduces the
// per-slice gradients into the primary replica in a fixed tree order.
//
// Two cross-shard sync points keep the replicas mathematically
// coherent: (1) activation observers run a deferred-observe protocol —
// every replica quantizes with the identical pre-step observer state,
// records its slice's raw range, and after the step folds the exact
// min/max-merged range, so all replicas always hold bit-identical
// quant.Params; (2) models with BatchNorm attach position-matched
// layers to shared BNSyncGroups, whose two-phase moment all-reduce
// makes shard statistics equal full-batch statistics (sync-BN).
//
// Determinism: the slice partition, the reduction tree, and the
// ascending-order loss and observer folds are all independent of
// scheduling, so a sharded run is bit-reproducible run-to-run. For
// BN-free models the partition is also independent of P (see
// defaultSliceRows), making `-shards P` bit-identical to `-shards 1`;
// sync-BN models use one slice per replica and are deterministic but
// only numerically close across different P.
//
// The usual cycle is Step (forward/backward/reduce into the primary's
// gradients), the caller's optimizer step on the primary's params,
// then Broadcast to push the updated values back to the replicas
// without reallocating. After any out-of-band mutation of the primary
// (rollback, checkpoint resume), call SyncReplicas instead.
type ShardedStep struct {
	shards    int
	sliceRows int
	hasBN     bool

	primary  *nn.Sequential
	replicas []*nn.Sequential     // replicas[0] == primary
	params   [][]*nn.Param        // per replica, position-matched
	observed [][]nn.ObservedLayer // per replica, position-matched
	bns      [][]*nn.BatchNorm2D  // per replica, position-matched
	groups   []*nn.BNSyncGroup    // one per BatchNorm position

	offsets []int // flat offset of each param in a slice buffer
	numel   int   // total parameter scalars

	// Per-step scratch, grown on demand and reused.
	sliceGrads [][]float32
	sliceLoss  []float64
	rngMin     []float32 // [slice*nObs + layer]
	rngMax     []float32
	rngOK      []bool
	dy         []*tensor.Tensor // per replica loss-gradient buffer

	panicMu     sync.Mutex
	panicReal   any
	panicAbort  any
	busySeconds float64
}

// NewShardedStep builds the replica set for model. The model itself
// becomes replica 0 (the primary); cfg.Shards-1 deep clones are
// created. All replicas are switched into deferred-observe mode and,
// when the model contains BatchNorm layers, wired into shared
// BNSyncGroups. Call Detach when done to return the primary to
// single-replica semantics.
func NewShardedStep(model *nn.Sequential, cfg ShardedConfig) *ShardedStep {
	p := cfg.Shards
	if p < 1 {
		p = 1
	}
	sliceRows := cfg.SliceRows
	if sliceRows < 1 {
		sliceRows = DefaultSliceRows
	}
	st := &ShardedStep{
		shards:    p,
		sliceRows: sliceRows,
		primary:   model,
		replicas:  make([]*nn.Sequential, p),
		params:    make([][]*nn.Param, p),
		observed:  make([][]nn.ObservedLayer, p),
		bns:       make([][]*nn.BatchNorm2D, p),
		dy:        make([]*tensor.Tensor, p),
	}
	st.replicas[0] = model
	for r := 1; r < p; r++ {
		st.replicas[r] = models.Clone(model)
	}
	for r, rep := range st.replicas {
		st.params[r] = rep.Params()
		nn.VisitLayers(rep, func(l nn.Layer) {
			if ol, ok := l.(nn.ObservedLayer); ok {
				st.observed[r] = append(st.observed[r], ol)
			}
			if bn, ok := l.(*nn.BatchNorm2D); ok {
				st.bns[r] = append(st.bns[r], bn)
			}
		})
		if len(st.params[r]) != len(st.params[0]) ||
			len(st.observed[r]) != len(st.observed[0]) ||
			len(st.bns[r]) != len(st.bns[0]) {
			panic("train: replica structure diverged from primary")
		}
		for _, ol := range st.observed[r] {
			ol.SetDeferObserve(true)
		}
	}
	st.hasBN = len(st.bns[0]) > 0
	if st.hasBN {
		st.groups = make([]*nn.BNSyncGroup, len(st.bns[0]))
		for i, bn := range st.bns[0] {
			g := nn.NewBNSyncGroup(bn.C)
			st.groups[i] = g
			for r := 0; r < p; r++ {
				st.bns[r][i].SetSyncGroup(g, r)
			}
		}
	}
	st.offsets, st.numel = ParamLayout(st.params[0])
	shardGauge.Set(float64(p))
	return st
}

// Shards returns the replica/worker count P.
func (st *ShardedStep) Shards() int { return st.shards }

// Replicas exposes the replica models (index 0 is the primary). Tests
// use it to verify cross-replica invariants; training code should not
// mutate replicas directly.
func (st *ShardedStep) Replicas() []*nn.Sequential { return st.replicas }

// plan cuts a batch of n rows into S contiguous slices, returning the
// slice boundary offsets (len S+1). BN-free models use fixed
// sliceRows-sized slices (P-independent, see defaultSliceRows);
// sync-BN models use exactly one near-even slice per active replica,
// because every slice participates in the BN barriers and a replica
// cannot wait in two slices at once.
func (st *ShardedStep) plan(n int) []int {
	if st.hasBN {
		return PlanEvenSlices(n, st.shards)
	}
	return PlanSlices(n, st.sliceRows)
}

// Step runs one sharded training step over minibatch (x, y): concurrent
// forward/backward over the slices, deterministic gradient reduction
// into the primary replica's Param.Grad accumulators, and the exact
// observer-range merge. It returns the full-batch mean loss. The
// caller applies the optimizer to the primary's params and then calls
// Broadcast.
//
// A panic in any shard aborts the BatchNorm barriers (so sibling
// shards cannot deadlock), and the first real panic value is re-thrown
// from Step once every worker has stopped — preserving the guarded
// train loop's skip-and-count semantics.
func (st *ShardedStep) Step(x *tensor.Tensor, y []int) float64 {
	n := x.Shape[0]
	if n != len(y) {
		panic(fmt.Sprintf("train: %d rows, %d labels", n, len(y)))
	}
	bounds := st.plan(n)
	S := len(bounds) - 1
	st.ensureScratch(S)
	if st.hasBN {
		for _, g := range st.groups {
			g.Configure(S)
		}
	}
	st.panicReal, st.panicAbort = nil, nil
	st.busySeconds = 0

	var wg sync.WaitGroup
	workers := st.shards
	if workers > S {
		workers = S
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go st.worker(w, S, bounds, x, y, &wg)
	}
	wg.Wait()
	shardBusySeconds.Add(st.busySeconds)
	if st.panicReal != nil {
		panic(st.panicReal)
	}
	if st.panicAbort != nil {
		panic(st.panicAbort)
	}

	reduceStart := time.Now()
	st.reduceGrads(S)
	var lossSum float64
	for s := 0; s < S; s++ {
		lossSum += st.sliceLoss[s]
	}
	st.mergeObservers(S)
	shardReduceMs.Observe(float64(time.Since(reduceStart)) / float64(time.Millisecond))
	shardStepsTotal.Inc()
	shardSlicesGauge.Set(float64(S))
	return lossSum / float64(n)
}

// worker processes every S-strided slice assigned to replica w.
func (st *ShardedStep) worker(w, S int, bounds []int, x *tensor.Tensor, y []int, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			st.recordPanic(r)
			for _, g := range st.groups {
				g.Abort()
			}
		}
	}()
	start := time.Now()
	for s := w; s < S; s += st.shards {
		st.runSlice(w, s, bounds[s], bounds[s+1], x, y)
	}
	elapsed := time.Since(start).Seconds()
	st.panicMu.Lock()
	st.busySeconds += elapsed
	st.panicMu.Unlock()
}

// runSlice runs forward/backward for slice s (rows [lo, hi)) on
// replica w and harvests the slice's gradients, loss sum, and observer
// ranges into the per-slice scratch.
func (st *ShardedStep) runSlice(w, s, lo, hi int, x *tensor.Tensor, y []int) {
	rep := st.replicas[w]
	for _, p := range st.params[w] {
		p.Grad.Zero()
	}
	view := tensor.ViewRows(x, lo, hi)
	out := rep.Forward(view, true)
	st.dy[w] = tensor.Ensure(st.dy[w], out.Shape...)
	st.sliceLoss[s] = nn.SoftmaxCrossEntropySumInto(st.dy[w], out, y[lo:hi], x.Shape[0])
	rep.Backward(st.dy[w])

	buf := st.sliceGrads[s]
	for pi, p := range st.params[w] {
		copy(buf[st.offsets[pi]:st.offsets[pi]+p.Grad.Numel()], p.Grad.Data)
	}
	nObs := len(st.observed[0])
	for i, ol := range st.observed[w] {
		mn, mx, ok := ol.DeferredRange()
		st.rngMin[s*nObs+i] = mn
		st.rngMax[s*nObs+i] = mx
		st.rngOK[s*nObs+i] = ok
	}
}

// reduceGrads folds the S slice buffers with a fixed balanced binary
// tree (stride doubling over ascending slice indices) and writes the
// result into the primary replica's gradient accumulators. The tree
// shape depends only on S — never on the shard count or scheduling —
// so the reduction is deterministic and, for BN-free models,
// bit-identical for every P.
func (st *ShardedStep) reduceGrads(S int) {
	FoldSliceTree(st.sliceGrads[:S])
	buf := st.sliceGrads[0]
	for pi, p := range st.params[0] {
		copy(p.Grad.Data, buf[st.offsets[pi]:st.offsets[pi]+p.Grad.Numel()])
	}
}

// mergeObservers merges each approximate layer's per-slice raw ranges
// with exact min/max (order-independent) and folds the one merged
// range into every replica's observer. All replicas start the step
// with identical observer state and fold identical values, so they end
// bit-identical — no observer broadcast is needed.
func (st *ShardedStep) mergeObservers(S int) {
	nObs := len(st.observed[0])
	MergeSliceRanges(S, nObs, st.rngMin, st.rngMax, st.rngOK, func(i int, mn, mx float32) {
		for r := 0; r < st.shards; r++ {
			st.observed[r][i].ActivationObserver().ObserveRange(mn, mx)
		}
	})
}

// Broadcast copies the primary replica's parameter values to every
// other replica, reusing the replicas' existing buffers (no
// allocation). Call it after each optimizer step on the primary.
func (st *ShardedStep) Broadcast() {
	src := st.params[0]
	for r := 1; r < st.shards; r++ {
		for pi, p := range st.params[r] {
			copy(p.Value.Data, src[pi].Value.Data)
			p.Touch()
		}
	}
}

// SyncReplicas restores full replica coherence after an out-of-band
// mutation of the primary (loss-spike rollback, checkpoint resume):
// parameter values via Broadcast plus all non-parameter layer state
// (observers, BatchNorm running statistics) via the nn.Stateful
// machinery.
func (st *ShardedStep) SyncReplicas() {
	st.Broadcast()
	if st.shards == 1 {
		return
	}
	state := nn.CollectState(st.primary)
	for r := 1; r < st.shards; r++ {
		if err := nn.RestoreState(st.replicas[r], state); err != nil {
			// The replicas are structural clones of the primary; a
			// mismatch means memory corruption, not bad input.
			panic(fmt.Sprintf("train: replica sync failed: %v", err))
		}
	}
}

// Detach returns every replica — the primary in particular — to
// single-replica semantics: deferred observation off, BatchNorm sync
// groups detached. The primary remains the trained model; clones can
// be garbage collected afterwards.
func (st *ShardedStep) Detach() {
	for r := range st.replicas {
		for _, ol := range st.observed[r] {
			ol.SetDeferObserve(false)
		}
		for _, bn := range st.bns[r] {
			bn.SetSyncGroup(nil, 0)
		}
	}
}

// ensureScratch sizes the per-slice buffers for S slices.
func (st *ShardedStep) ensureScratch(S int) {
	for len(st.sliceGrads) < S {
		st.sliceGrads = append(st.sliceGrads, make([]float32, st.numel))
	}
	if cap(st.sliceLoss) < S {
		st.sliceLoss = make([]float64, S)
	}
	st.sliceLoss = st.sliceLoss[:S]
	nRng := S * len(st.observed[0])
	if cap(st.rngMin) < nRng {
		st.rngMin = make([]float32, nRng)
		st.rngMax = make([]float32, nRng)
		st.rngOK = make([]bool, nRng)
	}
	st.rngMin = st.rngMin[:nRng]
	st.rngMax = st.rngMax[:nRng]
	st.rngOK = st.rngOK[:nRng]
}

// recordPanic keeps the first real panic (and, separately, the first
// barrier-abort panic so Step still fails loudly if — impossibly —
// only sentinel panics were seen).
func (st *ShardedStep) recordPanic(r any) {
	st.panicMu.Lock()
	defer st.panicMu.Unlock()
	if err, ok := r.(error); ok && err == nn.ErrSyncAborted {
		if st.panicAbort == nil {
			st.panicAbort = r
		}
		return
	}
	if st.panicReal == nil {
		st.panicReal = r
	}
}

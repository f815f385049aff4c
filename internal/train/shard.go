package train

import (
	"fmt"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// ShardedConfig parameterizes NewShardedStep.
type ShardedConfig struct {
	// Shards is the replica/worker count P (minimum 1).
	Shards int
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
// DefaultSliceRows), making `-shards P` bit-identical to `-shards 1`;
// sync-BN models use one slice per replica and are deterministic but
// only numerically close across different P.
//
// The usual cycle is Step (forward/backward/reduce into the primary's
// gradients), the caller's optimizer step on the primary's params,
// then Broadcast to push the updated values back to the replicas
// without reallocating. After any out-of-band mutation of the primary
// (rollback, checkpoint resume), call SyncReplicas instead.
type ShardedStep struct {
	models []*nn.Sequential // models[0] is the primary
	reps   []*Replica       // position-matched with models
	groups []*nn.BNSyncGroup
	set    Slices

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
	p := max(cfg.Shards, 1)
	st := &ShardedStep{models: make([]*nn.Sequential, p), reps: make([]*Replica, p)}
	st.models[0] = model
	for r := 1; r < p; r++ {
		st.models[r] = models.Clone(model)
	}
	for r, m := range st.models {
		rep := NewReplica(m, true)
		if pr := st.reps[0]; r > 0 && (len(rep.params) != len(pr.params) ||
			len(rep.observed) != len(pr.observed) || len(rep.bns) != len(pr.bns)) {
			panic("train: replica structure diverged from primary")
		}
		st.reps[r] = rep
	}
	for i, bn := range st.reps[0].bns {
		g := nn.NewBNSyncGroup(bn.C)
		st.groups = append(st.groups, g)
		for r, rep := range st.reps {
			rep.bns[i].SetSyncGroup(g, r)
		}
	}
	shardGauge.Set(float64(p))
	return st
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
	parts := 0
	if len(st.groups) > 0 {
		parts = len(st.reps)
	}
	bounds := st.set.Plan(st.reps[0], n, parts)
	S := len(bounds) - 1
	for _, g := range st.groups {
		g.Configure(S)
	}
	st.panicReal, st.panicAbort = nil, nil
	st.busySeconds = 0

	var wg sync.WaitGroup
	workers := min(len(st.reps), S)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go st.worker(w, bounds, x, y, &wg)
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
	loss := st.set.Fold(st.reps[0])
	for _, rep := range st.reps {
		rep.Observe(&st.set)
	}
	shardReduceMs.Observe(float64(time.Since(reduceStart)) / float64(time.Millisecond))
	shardStepsTotal.Inc()
	shardSlicesGauge.Set(float64(S))
	return loss
}

// worker runs every P-strided slice assigned to replica w.
func (st *ShardedStep) worker(w int, bounds []int, x *tensor.Tensor, y []int, wg *sync.WaitGroup) {
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
	for s := w; s+1 < len(bounds); s += len(st.reps) {
		lo, hi := bounds[s], bounds[s+1]
		st.reps[w].RunSlice(&st.set, s, tensor.ViewRows(x, lo, hi), y[lo:hi], x.Shape[0])
	}
	elapsed := time.Since(start).Seconds()
	st.panicMu.Lock()
	st.busySeconds += elapsed
	st.panicMu.Unlock()
}

// Broadcast copies the primary replica's parameter values to every
// other replica, reusing the replicas' existing buffers (no
// allocation). Call it after each optimizer step on the primary.
func (st *ShardedStep) Broadcast() {
	src := st.reps[0].params
	for _, rep := range st.reps[1:] {
		for pi, p := range rep.params {
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
	if len(st.models) == 1 {
		return
	}
	state := nn.CollectState(st.models[0])
	for _, m := range st.models[1:] {
		if err := nn.RestoreState(m, state); err != nil {
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
	for _, rep := range st.reps {
		rep.Detach()
	}
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

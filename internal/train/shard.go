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

// ShardedStep is the data-parallel sharded trainer, train.Run's step:
// one training step gives each of P model replicas (deep clones via
// models.Clone) a contiguous run of the minibatch's slices, runs one
// forward and backward per replica concurrently (Replica.RunSlices),
// and reduces the per-slice gradients into the primary replica in a
// fixed tree order.
//
// Two cross-shard sync points keep the replicas mathematically
// coherent: (1) activation observers run a deferred-observe protocol —
// every replica quantizes with the identical pre-step observer state,
// records its shard's raw range, and after the step folds the exact
// min/max-merged range, so all replicas always hold bit-identical
// quant.Params; (2) with more than one replica, models with BatchNorm
// attach position-matched layers to shared BNSyncGroups, which fold
// every replica's per-slice moments into full-batch statistics
// (sync-BN).
//
// Determinism: the slice partition, the reduction trees, and the
// ascending-order loss and observer folds are all independent of
// scheduling and of P (see DefaultSliceRows), so a sharded run is
// bit-reproducible run-to-run and `-shards P` is bit-identical to
// `-shards 1`, with or without BatchNorm.
//
// The usual cycle is Step (forward/backward/reduce into the primary's
// gradients), the caller's optimizer step on the primary's params,
// then Broadcast to push the updated values back to the replicas
// without reallocating. After any out-of-band mutation of the primary
// (rollback, checkpoint resume), call SyncReplicas instead.
type ShardedStep struct {
	reps   []*Replica // reps[0] wraps the primary
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
// when there are several and the model contains BatchNorm layers,
// wired into shared BNSyncGroups. Call Detach when done to return the
// primary to single-replica semantics.
func NewShardedStep(model *nn.Sequential, cfg ShardedConfig) *ShardedStep {
	return newShardedStep(model, cfg.Shards)
}

// newShardedStep is NewShardedStep for any model at one shard (no
// clone); more shards clone an *nn.Sequential.
func newShardedStep(model nn.Layer, shards int) *ShardedStep {
	pr := NewReplica(model)
	st := &ShardedStep{reps: []*Replica{pr}}
	for r := 1; r < shards; r++ {
		seq, ok := model.(*nn.Sequential)
		if !ok {
			panic(fmt.Sprintf("train: sharded training needs *nn.Sequential, got %T", model))
		}
		rep := NewReplica(models.Clone(seq))
		if len(rep.params) != len(pr.params) || len(rep.observed) != len(pr.observed) || len(rep.bns) != len(pr.bns) {
			panic("train: replica structure diverged from primary")
		}
		st.reps = append(st.reps, rep)
	}
	if len(st.reps) > 1 { // one replica runs the whole plan and folds it alone
		for i, bn := range pr.bns {
			g := nn.NewBNSyncGroup(bn.C)
			st.groups = append(st.groups, g)
			for _, rep := range st.reps {
				rep.bns[i].SetSyncGroup(g)
			}
		}
	}
	shardGauge.Set(float64(len(st.reps)))
	return st
}

// Step runs one sharded training step over minibatch (x, y): one
// forward/backward per replica over its run of slices, concurrently
// (replica 0 on the calling goroutine), deterministic gradient reduction
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
	bounds := st.set.Plan(st.reps[0], n)
	S := len(bounds) - 1
	for _, g := range st.groups {
		g.Configure(S)
	}
	st.panicReal, st.panicAbort = nil, nil
	st.busySeconds = 0

	var wg sync.WaitGroup
	workers := min(len(st.reps), S)
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go st.worker(w, workers, x, y, &wg)
	}
	st.worker(0, workers, x, y, &wg)
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

// worker runs replica w's contiguous run of the plan's slices, the
// w-th of workers near-even runs.
func (st *ShardedStep) worker(w, workers int, x *tensor.Tensor, y []int, wg *sync.WaitGroup) {
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
	s0, s1 := st.set.Run(w, workers)
	lo, hi := st.set.bounds[s0], st.set.bounds[s1]
	st.reps[w].RunSlices(&st.set, s0, s1, tensor.ViewRows(x, lo, hi), y[lo:hi], x.Shape[0])
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
	if len(st.reps) == 1 {
		return
	}
	state := nn.CollectState(st.reps[0].model)
	for _, rep := range st.reps[1:] {
		if err := nn.RestoreState(rep.model, state); err != nil {
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

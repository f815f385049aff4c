package nn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ErrSyncAborted is the panic value delivered to every participant
// blocked in a BNSyncGroup barrier when the group is aborted (because
// a sibling shard panicked or a remote worker died). The sharded
// trainer's workers recover it and treat it as a secondary failure:
// the original panic, not the abort, is what surfaces from the step.
// The distributed worker (internal/dist) recovers it the same way and
// reports the slice as aborted so the coordinator can retry the step.
var ErrSyncAborted = errors.New("nn: batchnorm sync aborted")

// BNSyncer is the cross-replica all-reduce a BatchNorm2D uses in
// sync-BN mode. A training pass sums its statistics per slice of the
// step's plan (SetSlices), publishes its slices' vectors and receives
// every slice's folded by foldSlices, the trainer's gradient-fold tree:
// an order fixed by the plan alone, whichever replica holds which
// slices, which makes sync-BN bit-identical across replica counts.
// Implementations must deliver bit-identical folds to every replica
// and must panic with ErrSyncAborted (rather than block forever) when
// the reduction is aborted.
//
// A training step makes three reductions per layer, each packing one
// phase's per-channel vectors per slice: the forward's sums followed by
// the element count per channel (rows * H * W) as a float64 — exact,
// the counts being far below 2^53 — then its squared deviations about
// the folded mean, and the backward's Σdy followed by Σdy·x̂.
//
// BNSyncGroup is the in-process implementation shared by the replicas
// of a data-parallel sharded step; internal/dist provides a network
// proxy that forwards the same reductions to a coordinator-hosted
// BNSyncGroup, extending sync-BN across processes.
type BNSyncer interface {
	// Channels returns the per-channel vector width participants must
	// use.
	Channels() int
	// Reduce publishes the vectors v of the slices first to
	// first+slices-1 and returns the fold. The returned slice is owned
	// by the syncer and valid until the caller's next reduction.
	Reduce(first, slices int, v []float64) []float64
}

// foldSlices folds the vectors of width w packed back to back in v with
// a fixed balanced binary tree (stride doubling over ascending slices)
// and returns the fold, which it leaves in v's first w elements.
func foldSlices(v []float64, w int) []float64 {
	S := len(v) / w
	for stride := 1; stride < S; stride *= 2 {
		for s := 0; s+stride < S; s += 2 * stride {
			a, b := v[s*w:(s+1)*w], v[(s+stride)*w:(s+stride+1)*w]
			for i, x := range b {
				a[i] += x
			}
		}
	}
	return v[:w:w]
}

// BNSyncGroup coordinates one BatchNorm2D position across the model
// replicas of a data-parallel sharded training step (sync-BN). Every
// replica's BatchNorm2D at the same architectural position shares one
// group. Each reduction, a replica publishes its run of slices'
// vectors into their slots and waits at a barrier that counts slices;
// the replica completing the plan folds the slots once (foldSlices) and
// every replica reads that fold — identical full-batch statistics
// without a designated leader.
//
// Configure must be called (single-threaded) before each step; slots
// are reused across steps, so steady-state steps do not allocate.
type BNSyncGroup struct {
	c      int
	slices int
	bar    syncBarrier

	// Two slot sets, alternating by reduction: a replica may publish
	// reduction k+1 while a slower one is still reading fold k, but none
	// can publish k+2 before every replica has arrived at k+1, that is,
	// finished with k. Slice s's vector of a width-w reduction sits at
	// s*w, room for the widest vector being 2c per slice.
	slots [2][]float64
	odd   []bool // per run, by its first slice: its next reduction uses slots[1]
}

// NewBNSyncGroup creates a group for one BatchNorm2D position with c
// channels.
func NewBNSyncGroup(c int) *BNSyncGroup {
	if c < 1 {
		panic("nn: BNSyncGroup needs at least one channel")
	}
	return &BNSyncGroup{c: c}
}

// Channels implements BNSyncer.
func (g *BNSyncGroup) Channels() int { return g.c }

// Configure prepares the group for one training step over a plan of
// the given number of slices. It resets the barrier (clearing any
// previous abort) and sizes the slots. It must not be called while
// replicas are inside a reduction.
func (g *BNSyncGroup) Configure(slices int) {
	if slices < 1 {
		panic(fmt.Sprintf("nn: BNSyncGroup configured with %d slices", slices))
	}
	g.slices = slices
	g.bar.reset(slices)
	if n := slices * 2 * g.c; len(g.slots[0]) < n {
		g.slots = [2][]float64{make([]float64, n), make([]float64, n)}
		g.odd = make([]bool, slices)
	}
	clear(g.odd)
}

// Abort poisons the group's barrier: every participant currently or
// subsequently waiting panics with ErrSyncAborted instead of blocking
// forever on a sibling that died. The next Configure clears the abort.
func (g *BNSyncGroup) Abort() { g.bar.abort() }

// Reduce implements BNSyncer: slot publish, barrier, one fold.
func (g *BNSyncGroup) Reduce(first, slices int, v []float64) []float64 {
	set, w := g.publish(first, slices, v)
	g.bar.wait(slices, func() { foldSlices(set[:g.slices*w], w) })
	return set[:w:w]
}

// publish copies v, the vectors of the slices first to first+slices-1,
// into their slots of the set the run's next reduction uses, and
// returns that set and the vectors' width.
func (g *BNSyncGroup) publish(first, slices int, v []float64) ([]float64, int) {
	if first < 0 || slices < 1 || first+slices > g.slices {
		panic(fmt.Sprintf("nn: sync slices %d to %d of %d — BNSyncGroup not configured for this step",
			first, first+slices-1, g.slices))
	}
	w := len(v) / slices
	if len(v) != slices*w || w != g.c && w != g.c+1 && w != 2*g.c {
		panic(fmt.Sprintf("nn: sync vectors of %d for %d slices of a %d-channel group", len(v), slices, g.c))
	}
	set := g.slots[0]
	if g.odd[first] {
		set = g.slots[1]
	}
	g.odd[first] = !g.odd[first]
	copy(set[first*w:], v)
	return set, w
}

// syncBarrier is a reusable (cyclic) barrier with abort support,
// counting slices: wait blocks until parts slices have arrived, runs
// the last arrival's full callback, then releases them all and resets
// for the next phase. abort wakes every waiter with a panic so a dead
// sibling cannot deadlock the survivors.
//
// A waiter yields for up to barrierSpin before it parks: the replicas
// run the same layers on equal slices, so the others usually arrive
// within microseconds. Yielding spares the barrier a park and a wake-up.
// It also keeps a step's allocations flat: the runtime takes a parked
// goroutine's wait record from the cache of the core it parks on and
// returns it to the cache of the core it resumes on, and while a pool
// worker polls (tensor.OpenWarmWindow) that is often the other core, so
// one cache runs dry and refills by allocating.
type syncBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parts   int
	arrived int
	gen     int
	aborted bool
}

// barrierSpin bounds how long a barrier waiter yields before it parks.
const barrierSpin = time.Millisecond

func (b *syncBarrier) reset(parts int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	b.parts = parts
	b.arrived = 0
	b.gen++
	b.aborted = false
}

// wait adds n slices to the current generation and blocks until all of
// its slices have arrived; the arrival that completes it runs full
// first. It panics with ErrSyncAborted when the barrier is poisoned.
func (b *syncBarrier) wait(n int, full func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	if b.aborted {
		panic(ErrSyncAborted)
	}
	b.arrived += n
	if b.arrived == b.parts {
		full()
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for start := time.Now(); gen == b.gen && !b.aborted && time.Since(start) < barrierSpin; {
		b.mu.Unlock()
		runtime.Gosched()
		b.mu.Lock()
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	if b.aborted {
		panic(ErrSyncAborted)
	}
}

func (b *syncBarrier) abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	b.aborted = true
	b.cond.Broadcast()
}

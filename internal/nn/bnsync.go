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
// sync-BN mode. Participant idx publishes a packed vector and receives
// it folded over every participant: each element summed in ascending
// participant order from +0 — the fixed fold order is what makes
// sync-BN deterministic. Implementations must deliver bit-identical
// folds to every participant and must panic with ErrSyncAborted
// (rather than block forever) when the reduction is aborted.
//
// A training step makes three reductions per layer, each packing one
// phase's per-channel vectors: the forward's sums followed by the
// element count per channel (rows * H * W) as a float64 — exact, the
// counts being far below 2^53 — then its squared deviations about the
// folded mean, and the backward's Σdy followed by Σdy·x̂.
//
// BNSyncGroup is the in-process implementation shared by the replicas
// of a data-parallel sharded step; internal/dist provides a network
// proxy that forwards the same reductions to a coordinator-hosted
// BNSyncGroup, extending sync-BN across processes.
type BNSyncer interface {
	// Channels returns the per-channel vector width participants must
	// use.
	Channels() int
	// Reduce publishes participant idx's packed vector v and returns
	// the fold. The returned slice is owned by the syncer and valid
	// until the participant's next reduction.
	Reduce(idx int, v []float64) []float64
}

// BNSyncGroup coordinates one BatchNorm2D position across the model
// replicas of a data-parallel sharded training step (sync-BN). Every
// replica's BatchNorm2D at the same architectural position shares one
// group: each reduction, a participant publishes its vector into its
// own slot, waits at a barrier, and then folds all slots in ascending
// participant order — so all replicas compute identical full-batch
// statistics, in the same order, without a designated leader.
//
// Configure must be called (single-threaded) before each step; slots
// are reused across steps, so steady-state steps do not allocate.
type BNSyncGroup struct {
	c     int
	parts int
	bar   syncBarrier

	// Two slot sets, alternating by reduction: a participant may
	// publish reduction k+1 while a slower one is still folding k, but
	// none can publish k+2 before every participant has arrived at k+1,
	// that is, finished folding k. Participant p's slot in a set, and
	// its fold in out, start at p*2c — room for the widest vector.
	slots [2][]float64
	out   []float64
	odd   []bool // per participant: its next reduction uses slots[1]
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

// Configure prepares the group for one training step with parts active
// participants (participant indices 0..parts-1). It resets the barrier
// (clearing any previous abort) and sizes the slots. It must not be
// called while participants are inside a reduction.
func (g *BNSyncGroup) Configure(parts int) {
	if parts < 1 {
		panic(fmt.Sprintf("nn: BNSyncGroup configured with %d participants", parts))
	}
	g.parts = parts
	g.bar.reset(parts)
	if n := parts * 2 * g.c; len(g.out) < n {
		g.slots = [2][]float64{make([]float64, n), make([]float64, n)}
		g.out = make([]float64, n)
		g.odd = make([]bool, parts)
	}
	clear(g.odd)
}

// Abort poisons the group's barrier: every participant currently or
// subsequently waiting panics with ErrSyncAborted instead of blocking
// forever on a sibling that died. The next Configure clears the abort.
func (g *BNSyncGroup) Abort() { g.bar.abort() }

// Reduce implements BNSyncer: slot publish, barrier, ascending fold.
func (g *BNSyncGroup) Reduce(idx int, v []float64) []float64 {
	set := g.publish(idx, v)
	g.bar.wait()
	return g.fold(idx, set, len(v))
}

// publish copies v into participant idx's slot of the set its next
// reduction uses, and returns that set.
func (g *BNSyncGroup) publish(idx int, v []float64) []float64 {
	if idx < 0 || idx >= g.parts {
		panic(fmt.Sprintf("nn: sync participant %d of %d — BNSyncGroup not configured for this step",
			idx, g.parts))
	}
	if n := len(v); n != g.c && n != g.c+1 && n != 2*g.c {
		panic(fmt.Sprintf("nn: sync vector of %d for a %d-channel group", n, g.c))
	}
	set := g.slots[0]
	if g.odd[idx] {
		set = g.slots[1]
	}
	g.odd[idx] = !g.odd[idx]
	copy(set[idx*2*g.c:], v)
	return set
}

// fold sums the first n elements of every participant's slot in set,
// ascending from +0, into participant idx's output.
func (g *BNSyncGroup) fold(idx int, set []float64, n int) []float64 {
	w := 2 * g.c
	out := g.out[idx*w : idx*w+n : idx*w+n]
	for i := range out {
		var s float64
		for p := 0; p < g.parts; p++ {
			s += set[p*w+i]
		}
		out[i] = s
	}
	return out
}

// syncBarrier is a reusable (cyclic) barrier with abort support. wait
// blocks until parts participants have arrived, then releases them all
// and resets for the next phase. abort wakes every waiter with a panic
// so a dead sibling cannot deadlock the survivors.
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

// wait blocks until every participant of the current generation has
// arrived. It panics with ErrSyncAborted when the barrier is poisoned.
func (b *syncBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	if b.aborted {
		panic(ErrSyncAborted)
	}
	b.arrived++
	if b.arrived == b.parts {
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

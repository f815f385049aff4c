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

// BNSyncer is the cross-replica moment all-reduce a BatchNorm2D uses
// in sync-BN mode. Participant idx publishes its local per-channel
// vectors and receives the vectors folded over every participant in
// ascending participant order — the fixed fold order is what makes
// sync-BN deterministic. Implementations must deliver bit-identical
// folds to every participant and must panic with ErrSyncAborted
// (rather than block forever) when the reduction is aborted.
//
// BNSyncGroup is the in-process implementation shared by the replicas
// of a data-parallel sharded step; internal/dist provides a network
// proxy that forwards the same three exchanges to a coordinator-hosted
// BNSyncGroup, extending sync-BN across processes.
type BNSyncer interface {
	// Channels returns the per-channel vector width participants must
	// use.
	Channels() int
	// ReduceMoments publishes the participant's per-channel input sums
	// and element count (rows * H * W) and returns the sums folded over
	// all participants plus the total element count. The returned slice
	// is owned by the syncer and valid until the participant's next
	// reduction.
	ReduceMoments(idx int, sum []float64, cnt int) (folded []float64, totalCnt int)
	// ReduceSquares publishes the participant's per-channel squared
	// deviations about the global mean and returns the folded sums.
	ReduceSquares(idx int, sq []float64) []float64
	// ReduceGrads publishes the participant's per-channel gradient sums
	// (sum dy, sum dy*xhat) and returns both folded over the group.
	ReduceGrads(idx int, dy, dyx []float64) (gdy, gdyx []float64)
}

// BNSyncGroup coordinates one BatchNorm2D position across the model
// replicas of a data-parallel sharded training step (sync-BN). Every
// replica's BatchNorm2D at the same architectural position shares one
// group: during a training forward each participant publishes its
// slice's per-channel moments into its own slot, waits at a barrier,
// and then folds all slots in ascending participant order — so all
// replicas compute identical full-batch statistics, in the same order,
// without a designated leader. Backward all-reduces the per-channel
// gradient sums the same way.
//
// Configure must be called (single-threaded) before each step; slots
// are reused across steps, so steady-state steps do not allocate.
type BNSyncGroup struct {
	c     int
	parts int
	bar   syncBarrier

	// Per-participant slots, each c channels wide. sum/sq carry the
	// forward moment passes; dy/dyx the backward gradient sums. cnt is
	// the participant's element count per channel (rows * H * W). The
	// r-prefixed slices are the per-participant fold results handed
	// back from the Reduce methods.
	sum, sq, dy, dyx     [][]float64
	rsum, rsq, rdy, rdyx [][]float64
	cnt                  []int
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
// (clearing any previous abort) and sizes the moment slots. It must
// not be called while participants are inside a reduction.
func (g *BNSyncGroup) Configure(parts int) {
	if parts < 1 {
		panic(fmt.Sprintf("nn: BNSyncGroup configured with %d participants", parts))
	}
	g.parts = parts
	g.bar.reset(parts)
	for len(g.sum) < parts {
		g.sum = append(g.sum, make([]float64, g.c))
		g.sq = append(g.sq, make([]float64, g.c))
		g.dy = append(g.dy, make([]float64, g.c))
		g.dyx = append(g.dyx, make([]float64, g.c))
		g.rsum = append(g.rsum, make([]float64, g.c))
		g.rsq = append(g.rsq, make([]float64, g.c))
		g.rdy = append(g.rdy, make([]float64, g.c))
		g.rdyx = append(g.rdyx, make([]float64, g.c))
		g.cnt = append(g.cnt, 0)
	}
}

// Abort poisons the group's barrier: every participant currently or
// subsequently waiting panics with ErrSyncAborted instead of blocking
// forever on a sibling that died. The next Configure clears the abort.
func (g *BNSyncGroup) Abort() { g.bar.abort() }

func (g *BNSyncGroup) checkPart(idx, n int) {
	if idx < 0 || idx >= g.parts {
		panic(fmt.Sprintf("nn: sync participant %d of %d — BNSyncGroup not configured for this step",
			idx, g.parts))
	}
	if n != g.c {
		panic(fmt.Sprintf("nn: sync vector has %d channels, group %d", n, g.c))
	}
}

// ReduceMoments implements BNSyncer: slot publish, barrier, ascending
// fold.
func (g *BNSyncGroup) ReduceMoments(idx int, sum []float64, cnt int) ([]float64, int) {
	g.checkPart(idx, len(sum))
	copy(g.sum[idx], sum)
	g.cnt[idx] = cnt
	g.bar.wait()
	total := 0
	for p := 0; p < g.parts; p++ {
		total += g.cnt[p]
	}
	out := g.rsum[idx]
	for ch := 0; ch < g.c; ch++ {
		var s float64
		for p := 0; p < g.parts; p++ {
			s += g.sum[p][ch]
		}
		out[ch] = s
	}
	return out, total
}

// ReduceSquares implements BNSyncer.
func (g *BNSyncGroup) ReduceSquares(idx int, sq []float64) []float64 {
	g.checkPart(idx, len(sq))
	copy(g.sq[idx], sq)
	g.bar.wait()
	out := g.rsq[idx]
	for ch := 0; ch < g.c; ch++ {
		var s float64
		for p := 0; p < g.parts; p++ {
			s += g.sq[p][ch]
		}
		out[ch] = s
	}
	return out
}

// ReduceGrads implements BNSyncer.
func (g *BNSyncGroup) ReduceGrads(idx int, dy, dyx []float64) ([]float64, []float64) {
	g.checkPart(idx, len(dy))
	g.checkPart(idx, len(dyx))
	copy(g.dy[idx], dy)
	copy(g.dyx[idx], dyx)
	g.bar.wait()
	ody, odyx := g.rdy[idx], g.rdyx[idx]
	for ch := 0; ch < g.c; ch++ {
		var sdy, sdyx float64
		for p := 0; p < g.parts; p++ {
			sdy += g.dy[p][ch]
			sdyx += g.dyx[p][ch]
		}
		ody[ch] = sdy
		odyx[ch] = sdyx
	}
	return ody, odyx
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

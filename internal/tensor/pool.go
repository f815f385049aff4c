package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the persistent worker pool shared by every
// parallel kernel in the repository (the k-major im2col and col2im
// jobs, and the GEMM kernels in internal/nn). Work is split into
// blocks that idle workers claim from a shared atomic counter, so load
// balances dynamically (work stealing over a block queue) and no
// goroutines are spawned per call — the pool is started once and lives
// for the process.

// RangeRunner is the closure-free form of a parallel kernel body: an
// object whose RunRange method processes [lo, hi). ParallelRowsOn and
// ParallelBlocksOn accept one so hot per-step call sites can
// keep a runner struct in long-lived scratch state instead of
// allocating a closure context per call: the inline path (one worker,
// or a single block) invokes the runner directly and the pooled path
// recycles its job header, so the dispatch allocates nothing.
type RangeRunner interface {
	RunRange(lo, hi int)
}

// funcRunner adapts the closure-based entry points onto RangeRunner.
// Func values are pointer-shaped, so the interface conversion itself
// does not allocate (the closure context, if any, was the caller's).
type funcRunner func(lo, hi int)

func (f funcRunner) RunRange(lo, hi int) { f(lo, hi) }

// poolJob is one parallel invocation: runner applied to every block of
// [0, n) of size chunk. Workers claim block indices from next until
// exhausted; wg counts completed blocks. refs counts the goroutines
// that may still touch the job — the submitter plus one per wake-up
// sitting in (or taken from) the work queue. A wake-up can be received
// long after every block completed, so the job returns to the free
// list only when the last holder lets go (workerPool.release); until
// then it is never reinitialised.
type poolJob struct {
	runner RangeRunner
	next   atomic.Int64
	n      int
	chunk  int
	nblk   int64
	wg     sync.WaitGroup
	refs   atomic.Int32
}

// run claims and executes blocks until none remain. It is called by
// pool workers and by the submitting goroutine itself, so the caller
// always makes progress even when every worker is busy.
func (j *poolJob) run() {
	for {
		b := j.next.Add(1) - 1
		if b >= j.nblk {
			return
		}
		lo := int(b) * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.runner.RunRange(lo, hi)
		j.wg.Done()
	}
}

// workerPool is a fixed set of goroutines consuming jobs from a shared
// channel. The zero worker count degrades to inline execution.
type workerPool struct {
	work    chan *poolJob
	workers int
	// free recycles job headers so a pooled dispatch allocates nothing.
	// It holds every header that can be live at once — one per stale
	// wake-up in the work queue, one per worker, one per submitter (as
	// many as workers, typically) — and starts full: filled on demand, a
	// burst of stale wake-ups still allocated headers steps after start.
	// Should it overflow anyway, release drops the job for the collector.
	free chan *poolJob
}

// newWorkerPool starts workers-1 goroutines (the submitting goroutine
// is the remaining worker).
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers}
	if workers > 1 {
		// A deep buffer lets submitters hand off wake-ups without
		// blocking even when all workers are mid-job.
		p.work = make(chan *poolJob, 4*workers)
		p.free = make(chan *poolJob, cap(p.work)+2*workers)
		for len(p.free) < cap(p.free) {
			p.free <- new(poolJob)
		}
		for i := 1; i < workers; i++ {
			go func() {
				for j := range p.work {
					j.run()
					p.release(j)
				}
			}()
		}
	}
	return p
}

// release drops one reference to j; the last holder recycles it.
func (p *workerPool) release(j *poolJob) {
	if j.refs.Add(-1) != 0 {
		return
	}
	j.runner = nil // do not pin the caller's state from the free list
	select {
	case p.free <- j:
	default:
	}
}

// run executes r over [0, n) in blocks of chunk, in parallel across
// the pool. It returns once every block has completed. A job whose
// block count is 1 (or a pool without workers) runs inline; a pooled job
// takes its header from the free list, so either way the *On entry
// points allocate nothing in steady state.
func (p *workerPool) run(n, chunk int, r RangeRunner) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nblk := (n + chunk - 1) / chunk
	if p.workers <= 1 || nblk == 1 {
		poolJobsInline.Inc()
		r.RunRange(0, n)
		return
	}
	poolJobsPooled.Inc()
	poolBlocksTotal.Add(float64(nblk))
	start := time.Now()
	var j *poolJob
	select {
	case j = <-p.free:
	default:
		j = new(poolJob)
	}
	j.runner, j.n, j.chunk, j.nblk = r, n, chunk, int64(nblk)
	j.next.Store(0)
	j.wg.Add(nblk)
	j.refs.Store(1)
	// Wake at most nblk-1 workers (the caller handles the rest). The
	// sends are non-blocking: if the queue is full every worker is
	// already busy and will find this job too late or not at all — the
	// caller then simply executes the blocks itself.
	wake := nblk - 1
	if wake > p.workers-1 {
		wake = p.workers - 1
	}
wakeLoop:
	for i := 0; i < wake; i++ {
		j.refs.Add(1) // before the send: the receiver may release at once
		select {
		case p.work <- j:
		default:
			j.refs.Add(-1)
			break wakeLoop // queue full: every worker is already busy
		}
	}
	j.run()
	j.wg.Wait()
	p.release(j)
	poolJobMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// runFn is run for a plain closure body.
func (p *workerPool) runFn(n, chunk int, fn func(lo, hi int)) {
	p.run(n, chunk, funcRunner(fn))
}

var (
	defaultPool     *workerPool
	defaultPoolOnce sync.Once
)

func pool() *workerPool {
	defaultPoolOnce.Do(func() {
		defaultPool = newWorkerPool(runtime.GOMAXPROCS(0))
		registerPoolGauges(defaultPool.workers)
	})
	return defaultPool
}

// ParallelRows splits [0, m) across the persistent worker pool and runs
// fn on each chunk. Small row counts run inline to avoid handoff
// overhead. It is the scheduling primitive under every GEMM-shaped
// kernel in the repository. The closure typically costs one heap
// allocation per call (its context escapes into the pool); per-step hot
// paths use ParallelRowsOn with a reused runner instead.
func ParallelRows(m int, fn func(lo, hi int)) {
	ParallelRowsOn(m, funcRunner(fn))
}

// ParallelRowsOn is ParallelRows for a reusable RangeRunner: passing a
// pointer to a runner struct held in long-lived state (a scratch arena,
// a layer) makes the dispatch allocation-free.
func ParallelRowsOn(m int, r RangeRunner) {
	if m <= 0 {
		return
	}
	p := pool()
	if p.workers <= 1 || m < 16 {
		poolJobsInline.Inc()
		r.RunRange(0, m)
		return
	}
	// Four blocks per worker keeps the block queue long enough for
	// dynamic balancing without making handoff dominate.
	chunk := (m + 4*p.workers - 1) / (4 * p.workers)
	p.run(m, chunk, r)
}

// ParallelBlocksOn runs r over [0, n) in blocks of exactly chunk (the
// last block may be short), scheduled on the persistent pool. Kernels
// that tile for cache locality use it to make the parallel grain equal
// to the cache tile.
func ParallelBlocksOn(n, chunk int, r RangeRunner) {
	pool().run(n, chunk, r)
}

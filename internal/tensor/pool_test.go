package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The default pool is sized by GOMAXPROCS and degrades to inline
// execution on a single-CPU host, so these tests build pools with an
// explicit worker count to exercise the concurrent paths (run them
// under -race; the Makefile race target does).

func checkCoverage(t *testing.T, counts []int32) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestWorkerPoolCoversAllBlocks(t *testing.T) {
	p := newWorkerPool(4)
	for _, n := range []int{1, 7, 64, 1000, 4097} {
		for _, chunk := range []int{1, 3, 64, 5000} {
			counts := make([]int32, n)
			p.runFn(n, chunk, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			checkCoverage(t, counts)
		}
	}
}

func TestWorkerPoolZeroAndNegative(t *testing.T) {
	p := newWorkerPool(4)
	ran := false
	p.runFn(0, 8, func(lo, hi int) { ran = true })
	p.runFn(-3, 8, func(lo, hi int) { ran = true })
	if ran {
		t.Error("callback invoked for empty range")
	}
	// chunk <= 0 must still cover the range.
	counts := make([]int32, 10)
	p.runFn(10, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	checkCoverage(t, counts)
}

func TestWorkerPoolSingleWorkerInline(t *testing.T) {
	p := newWorkerPool(1)
	var calls int // no atomics: inline execution is single-threaded
	p.runFn(100, 7, func(lo, hi int) { calls += hi - lo })
	if calls != 100 {
		t.Fatalf("covered %d of 100", calls)
	}
}

// TestWorkerPoolConcurrentSubmitters: many goroutines submitting jobs
// to one shared pool at once — the production shape, since layers all
// schedule on the package-level pool. Primarily a -race target.
func TestWorkerPoolConcurrentSubmitters(t *testing.T) {
	p := newWorkerPool(4)
	const submitters, n = 8, 513
	var wg sync.WaitGroup
	results := make([][]int32, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				counts := make([]int32, n)
				p.runFn(n, 19, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				results[s] = counts
			}
		}(s)
	}
	wg.Wait()
	for s := range results {
		checkCoverage(t, results[s])
	}
}

// TestWorkerPoolNestedSubmission: a job body that itself submits to the
// pool must not deadlock — the submitting goroutine always participates,
// so progress is guaranteed even with every worker busy.
func TestWorkerPoolNestedSubmission(t *testing.T) {
	p := newWorkerPool(4)
	outer := make([]int32, 64)
	var inner int64
	p.runFn(len(outer), 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&outer[i], 1)
		}
		p.runFn(32, 8, func(lo, hi int) {
			atomic.AddInt64(&inner, int64(hi-lo))
		})
	})
	checkCoverage(t, outer)
	if want := int64(len(outer) / 4 * 32); inner != want {
		t.Fatalf("nested jobs covered %d, want %d", inner, want)
	}
}

func TestParallelRowsAndBlocksCoverRange(t *testing.T) {
	for _, m := range []int{0, 1, 15, 16, 100, 2048} {
		counts := make([]int32, m)
		ParallelRows(m, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		checkCoverage(t, counts)
	}
	// ParallelBlocksOn degrades to one inline full-range call on a
	// single-worker pool, so only coverage is asserted here …
	counts := make([]int32, 333)
	ParallelBlocksOn(len(counts), 64, funcRunner(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	}))
	checkCoverage(t, counts)
}

// TestSharedPoolConcurrentCallers drives the package-level
// ParallelRows/ParallelBlocksOn — the shared singleton every layer
// schedules on — from many goroutines at once. This is the serving
// shape: independent model replicas running forward passes
// concurrently all funnel into this one pool, so every caller must see
// exactly its own range covered exactly once. Primarily a -race target.
func TestSharedPoolConcurrentCallers(t *testing.T) {
	const callers = 12
	var wg sync.WaitGroup
	errs := make([]string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 64 + 37*c // distinct sizes so callers can't mask each other
			for iter := 0; iter < 25; iter++ {
				rows := make([]int32, n)
				ParallelRows(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&rows[i], 1)
					}
				})
				blocks := make([]int32, n)
				ParallelBlocksOn(n, 16, funcRunner(func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&blocks[i], 1)
					}
				}))
				for i := 0; i < n; i++ {
					if rows[i] != 1 || blocks[i] != 1 {
						errs[c] = "range not covered exactly once"
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, e := range errs {
		if e != "" {
			t.Errorf("caller %d: %s", c, e)
		}
	}
}

// … and chunk granularity is asserted against an explicit multi-worker
// pool, where the tiling contract holds.
func TestWorkerPoolRespectsChunk(t *testing.T) {
	p := newWorkerPool(4)
	counts := make([]int32, 333)
	p.runFn(len(counts), 64, func(lo, hi int) {
		if hi-lo > 64 {
			t.Errorf("block [%d,%d) exceeds chunk", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	checkCoverage(t, counts)
}

// sumRunner is a reusable RangeRunner body, the shape hot call sites
// keep in their scratch state.
type sumRunner struct{ hits []int32 }

func (r *sumRunner) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&r.hits[i], 1)
	}
}

// TestPooledDispatchDoesNotAllocate: a pooled job takes its header
// from the pool's free list, so once the list is primed a dispatch
// through a reused runner allocates nothing — with real workers, not
// only on the inline path.
func TestPooledDispatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact count holds only without -race")
	}
	p := newWorkerPool(4)
	r := &sumRunner{hits: make([]int32, 256)}
	for i := 0; i < 64; i++ {
		p.run(len(r.hits), 16, r) // prime the free list
	}
	if allocs := testing.AllocsPerRun(200, func() { p.run(len(r.hits), 16, r) }); allocs != 0 {
		t.Fatalf("pooled dispatch allocates %.1f times per job, want 0", allocs)
	}
}

// TestWorkerPoolRecycledJobsUnderLateWakeups floods the pool with
// two-block jobs from several submitters. The submitter usually runs
// both blocks itself before a worker picks the wake-up off the queue,
// so workers keep dequeuing jobs that already completed while their
// headers are wanted for new jobs — exactly the window in which a
// recycled header must not be handed out. Every job must still cover
// its range exactly once; run under -race.
func TestWorkerPoolRecycledJobsUnderLateWakeups(t *testing.T) {
	p := newWorkerPool(4)
	const submitters, jobs = 6, 3000
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &sumRunner{hits: make([]int32, 2)}
			for j := 1; j <= jobs; j++ {
				p.run(2, 1, r)
				if r.hits[0] != int32(j) || r.hits[1] != int32(j) {
					t.Errorf("job %d: blocks ran %v times", j, r.hits)
					return
				}
			}
		}()
	}
	wg.Wait()
}

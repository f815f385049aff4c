package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// peakRunner records how many of its ranges ran at once.
type peakRunner struct{ now, peak atomic.Int32 }

func (r *peakRunner) RunRange(lo, hi int) {
	n := r.now.Add(1)
	for p := r.peak.Load(); n > p && !r.peak.CompareAndSwap(p, n); p = r.peak.Load() {
	}
	time.Sleep(50 * time.Microsecond) // let the other participants overlap
	r.now.Add(-1)
}

// TestSharesBoundConcurrentRanges: no job runs more ranges at once than
// shares reports — the count nn's forward GEMM reserves one tile per —
// however many submitters share the pool.
func TestSharesBoundConcurrentRanges(t *testing.T) {
	p := newWorkerPool(4)
	for _, c := range []struct{ n, chunk, want int }{
		{0, 8, 1}, {8, 8, 1}, {9, 8, 2}, {24, 8, 3}, {4097, 64, 4}, {4097, 5000, 1},
	} {
		if got := p.shares((c.n + c.chunk - 1) / c.chunk); got != c.want {
			t.Errorf("n=%d chunk=%d: shares = %d, want %d", c.n, c.chunk, got, c.want)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, n := range []int{9, 24, 200, 4097} {
				r := &peakRunner{}
				p.run(n, 8, 1, r)
				if max := int32(p.shares((n + 7) / 8)); r.peak.Load() > max {
					t.Errorf("n=%d: %d ranges ran at once, shares = %d", n, r.peak.Load(), max)
				}
			}
		}()
	}
	wg.Wait()
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
		p.run(len(r.hits), 16, 1, r) // prime the free list
	}
	if allocs := testing.AllocsPerRun(200, func() { p.run(len(r.hits), 16, 1, r) }); allocs != 0 {
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
				p.run(2, 1, 1, r)
				if r.hits[0] != int32(j) || r.hits[1] != int32(j) {
					t.Errorf("job %d: blocks ran %v times", j, r.hits)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWorkerPoolSharesCoverEveryBlockOnce: under per-worker shares and
// stealing every item runs exactly once, in blocks of at most chunk (one
// inline call on a one-worker pool) — at 1, 2 and 4 workers, with shares
// cut on image boundaries (unit > 1) into uneven numbers of images, with
// fewer blocks than workers, and with a unit that does not divide n.
func TestWorkerPoolSharesCoverEveryBlockOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := newWorkerPool(workers)
		for _, c := range []struct{ n, chunk, unit int }{
			{1, 1, 1}, {3, 1, 1}, {7, 64, 1}, {100, 7, 1}, {1000, 64, 1},
			{5 * 64, 16, 64}, {7 * 9, 4, 9}, {3 * 100, 64, 100}, {2 * 50, 200, 50},
			{100, 7, 3}, {4097, 256, 1}, {32 * 72, 18, 72},
		} {
			counts := make([]int32, c.n)
			var over atomic.Int32
			p.run(c.n, c.chunk, c.unit, funcRunner(func(lo, hi int) {
				if hi <= lo || hi-lo > c.chunk && workers > 1 {
					over.Add(1)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			}))
			if over.Load() != 0 {
				t.Errorf("workers %d %+v: %d blocks outside (0, chunk]", workers, c, over.Load())
			}
			checkCoverage(t, counts)
		}
	}
}

// TestSplitImageShares: a job cut on image boundaries gives share w the
// same images whatever the items per image, so consecutive passes over
// one batch hand every core the same images; without enough images the
// shares fall back to block boundaries.
func TestSplitImageShares(t *testing.T) {
	j := newWorkerPool(1).newJob()
	j.shares = make([]share, 4)
	images := func(n, chunk, unit, ns int) [][2]int {
		j.chunk = chunk
		j.split(n, (n+chunk-1)/chunk, unit, ns)
		var out [][2]int
		next := 0
		for w := 0; w < j.ns; w++ {
			s := &j.shares[w]
			if s.lo != next || s.hi <= s.lo || s.hi%unit != 0 {
				t.Fatalf("n %d unit %d: share %d is [%d, %d), want whole images from %d", n, unit, w, s.lo, s.hi, next)
			}
			next = s.hi
			out = append(out, [2]int{s.lo / unit, s.hi / unit})
		}
		if next != n {
			t.Fatalf("n %d: shares end at %d", n, next)
		}
		return out
	}
	for _, ns := range []int{2, 3, 4} {
		quant := images(13*4096, 4096, 4096, ns) // quantize: elements, 4096 per block
		cols := images(13*72, 18, 72, ns)        // im2col: (image, tap) items
		rows := images(13*256, 64, 256, ns)      // forward rows
		for w := range quant {
			if quant[w] != cols[w] || quant[w] != rows[w] {
				t.Fatalf("ns %d share %d: images %v / %v / %v differ across passes", ns, w, quant[w], cols[w], rows[w])
			}
		}
	}
	// One image, two shares: block boundaries, as without a unit.
	j.chunk = 64
	j.split(256, 4, 256, 2)
	if j.shares[0].hi != 128 || j.shares[1].lo != 128 {
		t.Fatalf("single image split at %d/%d, want the block boundary 128", j.shares[0].hi, j.shares[1].lo)
	}
}

// TestWorkerPoolJobWhileWorkerBusy: a job submitted while the only
// worker is stuck in another submitter's block completes — its
// submitter steals the share the worker cannot take.
func TestWorkerPoolJobWhileWorkerBusy(t *testing.T) {
	p := newWorkerPool(2)
	started, release := make(chan struct{}), make(chan struct{})
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		// Block 0 is the submitter's own; it waits until the worker holds
		// block 1, so the submitter cannot steal it.
		p.runFn(2, 1, func(lo, hi int) {
			if lo == 0 {
				<-started
				return
			}
			close(started)
			<-release
		})
	}()
	<-started
	bDone := make(chan []int32)
	go func() {
		counts := make([]int32, 8)
		p.runFn(8, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		bDone <- counts
	}()
	select {
	case counts := <-bDone:
		checkCoverage(t, counts)
	case <-time.After(10 * time.Second):
		t.Fatal("job submitted while the worker was busy did not complete")
	}
	close(release)
	<-aDone
}

// pollsAfter waits up to limit for a worker to poll later than at
// (since the pool's epoch) and reports whether one did.
func pollsAfter(p *workerPool, at, limit time.Duration) bool {
	for start := time.Now(); time.Since(start) < limit; runtime.Gosched() {
		if time.Duration(p.lastPoll.Load()) > at {
			return true
		}
	}
	return false
}

// TestWarmWindowStopsPolling: inside a window the workers poll after a
// job instead of parking; none polls 2 ms after the last window closes.
// Windows nest (a Residual's Sequential inside the model's) and overlap
// (two replicas' steps), and only the last close parks the pool. The
// hook is the workers' own stamp of their last poll, taken before they
// look at the window count, so a worker the host deschedules across the
// close cannot fail the test, while one that ignores the close does.
func TestWarmWindowStopsPolling(t *testing.T) {
	p := newWorkerPool(4)
	p.pollFor = time.Minute // only a closed window may stop the polling here
	job := func() { p.runFn(64, 1, func(lo, hi int) {}) }
	since := func() time.Duration { return time.Since(p.epoch) }
	stopped := func(closed time.Duration) {
		t.Helper()
		time.Sleep(10 * time.Millisecond) // time to misbehave
		if last := time.Duration(p.lastPoll.Load()); last > closed+2*time.Millisecond {
			t.Fatalf("a worker polled %v after the last window closed", last-closed)
		}
	}

	// Nested.
	p.warm.Add(1)
	p.warm.Add(1)
	job()
	if !pollsAfter(p, 0, 5*time.Second) {
		t.Fatal("no worker polls inside a window")
	}
	p.warm.Add(-1)
	inner := since()
	job()
	if !pollsAfter(p, inner, 5*time.Second) {
		t.Fatal("closing the inner window stopped the polling")
	}
	p.warm.Add(-1)
	stopped(since())

	// Overlapping, from two goroutines at once.
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.warm.Add(1)
			defer p.warm.Add(-1)
			for i := 0; i < 50; i++ {
				job()
			}
		}()
	}
	wg.Wait()
	if w := p.warm.Load(); w != 0 {
		t.Fatalf("%d windows open after both closed", w)
	}
	stopped(since())
	// Parked workers still take jobs, and do not poll after them.
	before := since()
	job()
	stopped(before)
}

// runFn is run for a plain closure body without image alignment.
func (p *workerPool) runFn(n, chunk int, fn func(lo, hi int)) {
	p.run(n, chunk, 1, funcRunner(fn))
}

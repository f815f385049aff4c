package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the persistent worker pool shared by every
// parallel kernel in the repository (the k-major im2col and col2im
// jobs, the GEMM kernels and the layer passes in internal/nn). No
// goroutines are spawned per call — the pool is started once and lives
// for the process.
//
// A job over [0, n) is cut into blocks of its chunk from 0 and the
// blocks into contiguous shares, one per participant: the submitting
// goroutine takes share 0 and pool worker w share w. A participant that
// runs out of its own share steals blocks from the ends of the others,
// so the submitter alone can always finish the job.
//
// Warm windows (OpenWarmWindow) are the spans in which jobs follow each
// other closely, a training forward or backward pass: inside one, an
// idle worker polls its mailbox instead of parking, and the submitter
// waits for stragglers without parking, so a job's hand-off costs no
// goroutine wake-up. Outside every window the pool parks as a plain
// channel consumer does.

// RangeRunner is the closure-free form of a parallel kernel body: an
// object whose RunRange method processes [lo, hi). The Parallel*On
// entry points accept one so hot per-step call sites can keep a runner
// struct in long-lived scratch state instead of allocating a closure
// context per call: the inline path (one worker, or a single block)
// invokes the runner directly and the pooled path recycles its job
// header, so the dispatch allocates nothing.
type RangeRunner interface {
	// RunRange processes items [lo, hi). The pool may call it from
	// several goroutines at once, on disjoint ranges that together
	// cover the job.
	RunRange(lo, hi int)
}

// funcRunner adapts the closure-based entry points onto RangeRunner.
// Func values are pointer-shaped, so the interface conversion itself
// does not allocate (the closure context, if any, was the caller's).
type funcRunner func(lo, hi int)

func (f funcRunner) RunRange(lo, hi int) { f(lo, hi) }

// pollIdle is how long an idle worker polls inside a warm window before
// it parks: long enough to bridge the gap between two jobs of one pass,
// short enough that a window left open over other work costs little.
const pollIdle = time.Millisecond

// share is one participant's part of a job: items [lo, hi) in blocks of
// the job's chunk from lo. Its owner claims blocks from the front and
// thieves from the back; both cursors live in one word (front<<32 |
// back, block indices), so a claim is one compare-and-swap.
type share struct {
	lo, hi int
	cur    atomic.Uint64
}

// take claims the front block, if any is left.
func (s *share) take() (int, bool) {
	for {
		v := s.cur.Load()
		if v>>32 >= v&0xFFFFFFFF {
			return 0, false
		}
		if s.cur.CompareAndSwap(v, v+1<<32) {
			return int(v >> 32), true
		}
	}
}

// steal claims the back block, if any is left.
func (s *share) steal() (int, bool) {
	for {
		v := s.cur.Load()
		if v>>32 >= v&0xFFFFFFFF {
			return 0, false
		}
		if s.cur.CompareAndSwap(v, v-1) {
			return int(v&0xFFFFFFFF) - 1, true
		}
	}
}

// poolJob is one parallel invocation: runner applied to every block of
// the first ns shares. left counts blocks not yet completed; wg is
// released when it reaches zero, for a submitter that parks. refs
// counts the goroutines that may still touch the job — the submitter
// plus one per wake-up sitting in (or taken from) a mailbox. A wake-up
// can be received long after every block completed, so the job returns
// to the free list only when the last holder lets go
// (workerPool.release); until then it is never reinitialised.
type poolJob struct {
	runner RangeRunner
	chunk  int
	shares []share // one per pool worker; the first ns are this job's
	ns     int
	left   atomic.Int64
	wg     sync.WaitGroup
	refs   atomic.Int32
}

// split cuts the nblk blocks of [0, n) into ns contiguous shares and
// arms their cursors.
func (j *poolJob) split(n, nblk, ns int) {
	for w := 0; w < ns; w++ {
		s := &j.shares[w]
		s.lo, s.hi = min(w*nblk/ns*j.chunk, n), min((w+1)*nblk/ns*j.chunk, n)
		s.cur.Store(uint64((s.hi - s.lo + j.chunk - 1) / j.chunk))
	}
	j.ns = ns
	j.left.Store(int64(nblk))
}

// work runs participant w's share front to back, then steals blocks
// from the backs of the other shares until none is left, and returns
// how many blocks it ran. It is called by pool workers and by the
// submitting goroutine itself, so the caller always makes progress even
// when every worker is busy.
func (j *poolJob) work(w int) int {
	done := 0
	for o := 0; o < j.ns; o++ {
		s := &j.shares[(w+o)%j.ns]
		for {
			var b int
			var ok bool
			if o == 0 {
				b, ok = s.take()
			} else {
				b, ok = s.steal()
			}
			if !ok {
				break
			}
			lo := s.lo + b*j.chunk
			j.runner.RunRange(lo, min(lo+j.chunk, s.hi))
			done++
			if j.left.Add(-1) == 0 {
				j.wg.Done()
			}
		}
	}
	return done
}

// workerPool is a fixed set of goroutines, worker w (1 <= w < workers)
// consuming wake-ups from its own mailbox. The zero worker count
// degrades to inline execution.
type workerPool struct {
	workers int
	mail    []chan *poolJob
	// free recycles job headers so a pooled dispatch allocates nothing.
	// It holds every header that can be live at once — one per stale
	// wake-up in a mailbox, one per worker, one per submitter (as many as
	// workers, typically) — and starts full: filled on demand, a burst of
	// stale wake-ups still allocated headers steps after start. Should it
	// overflow anyway, release drops the job for the collector.
	free chan *poolJob
	// warm counts the open warm windows. pollFor is pollIdle, which a
	// test may lengthen before the pool's first job; lastPoll is when,
	// since epoch, a worker last found a window open and looked into its
	// mailbox (read by the tests).
	warm     atomic.Int32
	pollFor  time.Duration
	epoch    time.Time
	lastPoll atomic.Int64
}

// mailDepth is each worker's mailbox capacity: a submitter hands off a
// wake-up without blocking while the worker is busy with up to this
// many other submitters' jobs; past it the submitter steals the share.
const mailDepth = 4

// newWorkerPool starts workers-1 goroutines (the submitting goroutine
// is the remaining worker).
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, pollFor: pollIdle, epoch: time.Now()}
	if workers > 1 {
		p.mail = make([]chan *poolJob, workers)
		p.free = make(chan *poolJob, (workers-1)*mailDepth+2*workers)
		for len(p.free) < cap(p.free) {
			p.free <- p.newJob()
		}
		for w := 1; w < workers; w++ {
			p.mail[w] = make(chan *poolJob, mailDepth)
			go p.worker(w)
		}
	}
	return p
}

func (p *workerPool) newJob() *poolJob {
	return &poolJob{shares: make([]share, p.workers)}
}

// worker is worker w's loop: take the next wake-up, run the share it
// names and whatever it can steal, let go of the job.
func (p *workerPool) worker(w int) {
	mail := p.mail[w]
	for {
		var j *poolJob
		select {
		case j = <-mail:
		default:
			j = p.idle(mail)
		}
		if n := j.work(w); n > 0 {
			poolBlocksWorker.Add(float64(n))
		}
		p.release(j)
	}
}

// idle waits for a worker's next wake-up: polling while a warm window is
// open, for at most pollFor, then parked on the mailbox.
func (p *workerPool) idle(mail chan *poolJob) *poolJob {
	if p.warm.Load() > 0 {
		// now is read before each check of warm, so a poll is stamped no
		// later than the close it missed.
		start := time.Now()
		for now := start; p.warm.Load() > 0 && now.Sub(start) < p.pollFor; now = time.Now() {
			p.lastPoll.Store(int64(now.Sub(p.epoch)))
			select {
			case j := <-mail:
				return j
			default:
				runtime.Gosched()
			}
		}
	}
	return <-mail
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
// block count is 1 (or a pool without workers) runs inline; a pooled
// job takes its header from the free list, so either way the entry
// points allocate nothing in steady state.
func (p *workerPool) run(n, chunk int, r RangeRunner) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nblk := (n + chunk - 1) / chunk
	ns := p.shares(nblk)
	if ns == 1 {
		poolJobsInline.Inc()
		r.RunRange(0, n)
		return
	}
	poolJobsPooled.Inc()
	start := time.Now()
	var j *poolJob
	select {
	case j = <-p.free:
	default:
		j = p.newJob()
	}
	j.runner, j.chunk = r, chunk
	j.split(n, nblk, ns)
	j.wg.Add(1)
	j.refs.Store(1)
	// Wake the owner of every other share. The sends are non-blocking: a
	// full mailbox means that worker is backed up with other jobs, and
	// its share is stolen instead.
	for w := 1; w < j.ns; w++ {
		j.refs.Add(1) // before the send: the receiver may release at once
		select {
		case p.mail[w] <- j:
		default:
			j.refs.Add(-1)
		}
	}
	poolBlocksSubmitter.Add(float64(j.work(0)))
	if p.warm.Load() > 0 {
		for j.left.Load() > 0 {
			runtime.Gosched()
		}
	}
	j.wg.Wait()
	p.release(j)
	poolJobMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
}

// shares is how many participants run a job of nblk blocks: one per
// share, or one (the submitter, inline) without workers or with a
// single block.
func (p *workerPool) shares(nblk int) int {
	if p.workers <= 1 || nblk <= 1 {
		return 1
	}
	return min(p.workers, nblk)
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

// OpenWarmWindow opens a warm window on the shared pool: until the
// matching CloseWarmWindow, idle workers poll for the next job instead
// of parking (see the file comment). Windows nest and may be open on
// several goroutines at once; the pool parks again when the last one
// closes. nn.Sequential opens one around a training forward and every
// backward pass.
func OpenWarmWindow() { pool().warm.Add(1) }

// CloseWarmWindow closes a window OpenWarmWindow opened.
func CloseWarmWindow() {
	if pool().warm.Add(-1) < 0 {
		panic("tensor: CloseWarmWindow without OpenWarmWindow")
	}
}

// ParallelRows splits [0, m) across the persistent worker pool and runs
// fn on each chunk. Small row counts run inline to avoid handoff
// overhead. The closure typically costs one heap allocation per call
// (its context escapes into the pool); per-step hot paths use
// ParallelRowsOn with a reused runner instead.
func ParallelRows(m int, fn func(lo, hi int)) {
	ParallelRowsOn(m, funcRunner(fn))
}

// ParallelRowsOn is ParallelRows for a reusable RangeRunner: passing a
// pointer to a runner struct held in long-lived state (a scratch arena,
// a layer) makes the dispatch allocation-free. Its grain is about four
// blocks per worker, and below 16 rows it runs inline.
func ParallelRowsOn(m int, r RangeRunner) {
	p := pool()
	if m <= 0 {
		return
	}
	if p.workers <= 1 || m < 16 {
		poolJobsInline.Inc()
		r.RunRange(0, m)
		return
	}
	// Four blocks per worker keeps the block queue long enough for
	// dynamic balancing without making handoff dominate.
	p.run(m, (m+4*p.workers-1)/(4*p.workers), r)
}

// ParallelBlocksOn runs r over [0, n) in blocks of exactly chunk from 0
// (the last block may be short), scheduled on the persistent pool.
// Kernels that tile for cache locality use it to make the parallel
// grain equal to the cache tile.
func ParallelBlocksOn(n, chunk int, r RangeRunner) {
	pool().run(n, chunk, r)
}

// Participants reports how many goroutines may run ranges of one job at
// once when ParallelBlocksOn runs n items in blocks of chunk > 0: the
// submitter plus one pool worker per further share. A runner that
// needs private state per concurrent range keeps that many copies.
func Participants(n, chunk int) int {
	return pool().shares((n + chunk - 1) / chunk)
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// This file implements the dynamic micro-batching queue at the heart
// of the serving subsystem. Single-image requests arrive concurrently;
// the approximate GEMM kernels (internal/nn) amortize their fixed
// costs — LUT-row hoisting, operand transposes, worker-pool handoff —
// across rows, so serving each request alone under load wastes most of
// the kernel speedup. The batcher is a bounded admission queue plus one
// loop per replica: a loop blocks for the first live request, takes
// whatever else is already queued (up to MaxBatch) without waiting,
// runs the batch, answers its riders, and repeats. There is no clock:
// an idle replica dispatches a lone request at once, and batches fill
// exactly while every replica is busy, because that is when requests
// accumulate in the queue.

// Errors a Batcher returns at admission or while a request is queued.
var (
	// ErrOverloaded is returned when the bounded queue is full — the
	// admission-control signal the HTTP layer maps to 429.
	ErrOverloaded = errors.New("serve: queue full")
	// ErrDraining is returned for requests submitted after Drain began.
	ErrDraining = errors.New("serve: draining")
	// ErrDeadlineExceeded is returned when a request's deadline passed
	// before a replica picked it up.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded while queued")
)

// Runner executes one coalesced batch of flattened images and returns
// one score vector per image. A Runner is used by one batch at a time;
// concurrency comes from registering several runners with the Batcher
// (see models.Replicas).
type Runner interface {
	// Run scores one coalesced batch, returning a score vector per
	// image in order, or an error that fails every request in it. The
	// images slice is the calling loop's scratch: Run must not retain
	// it past its return.
	Run(images [][]float32) ([][]float32, error)
}

// Result is the outcome of one request.
type Result struct {
	// Scores is the classifier output (logits), nil when Err is set.
	Scores []float32
	// BatchSize is the size of the coalesced batch the request rode in.
	BatchSize int
	// Queued is the time spent waiting for a replica.
	Queued time.Duration
	// Err is nil on success.
	Err error
}

// job is one queued request.
type job struct {
	image    []float32
	deadline time.Time // zero means none
	enq      time.Time
	done     chan Result // buffered; a runner loop never blocks on it
}

// Config tunes one Batcher.
type BatcherConfig struct {
	// MaxBatch caps the coalesced batch size (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue (default 4*MaxBatch).
	QueueDepth int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// Batcher coalesces concurrent requests into batches over a pool of
// runners. All methods are safe for concurrent use.
type Batcher struct {
	cfg BatcherConfig
	// maxRunners bounds how many runners AddRunner may grow the pool
	// to — the autoscaler's ceiling: 4x the initial runner count, at
	// least 8.
	maxRunners int
	queue      chan *job
	metrics    *Metrics
	// peak is the deepest the queue has been since QueuePeak last read
	// it: a loop drains the queue the moment it is free, so a sampled
	// len(queue) can read zero under any load.
	peak atomic.Int64

	// mu guards draining against admission: Do holds the read lock
	// across its inflight.Add, Drain takes the write lock before
	// waiting, so no request can be admitted after draining flips and
	// the WaitGroup wait cannot race an Add. AddRunner holds the read
	// lock the same way across its loops.Add.
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	// scaleMu guards the runner accounting: nrunners is how many loops
	// are registered, busy how many of them are inside a batch. The
	// difference is the idle count RemoveRunner and the
	// serve_replicas_idle gauge go by.
	scaleMu  sync.Mutex
	nrunners int
	busy     int
	// retire carries one token per RemoveRunner; the next loop to come
	// back for work takes it and exits. Sized to maxRunners so the send
	// under scaleMu never blocks.
	retire chan struct{}
	loops  sync.WaitGroup

	stop     chan struct{}
	stopOnce sync.Once
}

// NewBatcher starts a batcher with one loop per given runner. metrics
// may be nil.
func NewBatcher(runners []Runner, cfg BatcherConfig, metrics *Metrics) *Batcher {
	if len(runners) == 0 {
		panic("serve: batcher needs at least one runner")
	}
	cfg = cfg.withDefaults()
	if metrics == nil {
		metrics = NewMetrics("default")
	}
	maxRunners := max(4*len(runners), 8)
	b := &Batcher{
		cfg:        cfg,
		maxRunners: maxRunners,
		queue:      make(chan *job, cfg.QueueDepth),
		metrics:    metrics,
		nrunners:   len(runners),
		retire:     make(chan struct{}, maxRunners),
		stop:       make(chan struct{}),
	}
	// Callback gauges: a new batcher for the same model (reload, test
	// re-run) replaces the previous closure, so the series always
	// follows the live queue.
	reg := obs.Default()
	reg.GaugeFunc("serve_queue_depth", "Requests waiting in the admission queue.",
		func() float64 { return float64(len(b.queue)) }, "model", metrics.model)
	reg.GaugeFunc("serve_queue_capacity", "Admission queue bound (requests past it are rejected with 429).",
		func() float64 { return float64(cap(b.queue)) }, "model", metrics.model)
	reg.GaugeFunc("serve_replicas_idle", "Replicas registered with the batcher and not inside a batch.",
		func() float64 { return float64(b.idle()) }, "model", metrics.model)
	reg.GaugeFunc("serve_replicas_live", "Replicas currently registered with the batcher (idle or computing).",
		func() float64 { return float64(b.Runners()) }, "model", metrics.model)
	b.loops.Add(len(runners))
	for _, r := range runners {
		go b.loop(r)
	}
	return b
}

// Runners returns the number of runners currently registered (idle or
// mid-batch).
func (b *Batcher) Runners() int {
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	return b.nrunners
}

// idle returns how many registered runners are not inside a batch.
// A retired loop finishing its last batch is no longer registered, so
// the difference is floored at zero.
func (b *Batcher) idle() int {
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	return max(b.nrunners-b.busy, 0)
}

// AddRunner grows the pool by one runner loop — the autoscaler's
// scale-up primitive. It fails once the pool holds 4x its initial
// runner count (at least 8) or the batcher is draining.
func (b *Batcher) AddRunner(r Runner) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.draining {
		return ErrDraining
	}
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	if b.nrunners >= b.maxRunners {
		return fmt.Errorf("serve: runner pool at its cap of %d", b.maxRunners)
	}
	b.nrunners++
	b.loops.Add(1)
	go b.loop(r)
	return nil
}

// RemoveRunner retires one idle runner loop from the pool — the
// autoscaler's scale-down primitive. It reports false (and removes
// nothing) when only one runner remains or every runner is mid-batch;
// the caller simply retries at its next tick.
func (b *Batcher) RemoveRunner() bool {
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	if b.nrunners <= 1 || b.busy >= b.nrunners {
		return false
	}
	b.nrunners--
	b.retire <- struct{}{}
	return true
}

// QueuePeak returns the deepest the admission queue has been since the
// previous call and starts over from the present depth — what the
// autoscaler decides on: the pressure between two of its ticks, not the
// instant of the second.
func (b *Batcher) QueuePeak() int {
	return int(b.peak.Swap(int64(len(b.queue))))
}

// Do submits one image and blocks until its batch has been served (or
// the request was rejected/expired). deadline zero means no deadline.
func (b *Batcher) Do(ctx context.Context, image []float32, deadline time.Time) Result {
	j := &job{image: image, deadline: deadline, enq: time.Now(), done: make(chan Result, 1)}
	if err := b.admit(j); err != nil {
		b.metrics.Reject()
		return Result{Err: err}
	}
	// An admitted job is always answered (by a runner loop or by a
	// timed-out Drain), so waiting only on j.done cannot hang; ctx is
	// checked to give disconnected callers a prompt error (the batch
	// still runs — inference is not abortable).
	select {
	case r := <-j.done:
		return r
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	}
}

// admit enqueues a job under the admission lock.
func (b *Batcher) admit(j *job) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.draining {
		return ErrDraining
	}
	// Count the job before it is visible to a runner loop: a batch can
	// be pulled, served and Done()d before a post-enqueue Add(1) runs,
	// taking the counter negative.
	b.inflight.Add(1)
	select {
	case b.queue <- j:
		for d := int64(len(b.queue)); ; {
			if p := b.peak.Load(); d <= p || b.peak.CompareAndSwap(p, d) {
				return nil
			}
		}
	default:
		b.inflight.Done()
		return ErrOverloaded
	}
}

// loop is one runner's life: block for a first request, take whatever
// else is already queued up to MaxBatch without waiting, serve the
// batch, repeat — until RemoveRunner retires it or Drain stops it.
func (b *Batcher) loop(r Runner) {
	defer b.loops.Done()
	batch := make([]*job, 0, b.cfg.MaxBatch)
	images := make([][]float32, 0, b.cfg.MaxBatch)
	for {
		batch = batch[:0]
		select {
		case j := <-b.queue:
			batch = b.pull(batch, j)
		case <-b.retire:
			return
		case <-b.stop:
			return
		}
	fill:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case j := <-b.queue:
				batch = b.pull(batch, j)
			default:
				break fill
			}
		}
		if len(batch) > 0 {
			b.serve(r, batch, images)
		}
	}
}

// pull appends a job just taken off the queue to the batch — unless
// its deadline passed while it queued, in which case it is failed here
// and never reaches a replica. The pull is the one moment a deadline
// is checked: nothing holds a pulled job back from its Run.
func (b *Batcher) pull(batch []*job, j *job) []*job {
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		b.metrics.Expire()
		j.done <- Result{Err: ErrDeadlineExceeded, Queued: time.Since(j.enq)}
		b.inflight.Done()
		return batch
	}
	return append(batch, j)
}

// serve runs one batch on the loop's replica and answers every rider.
func (b *Batcher) serve(r Runner, batch []*job, images [][]float32) {
	b.scaleMu.Lock()
	b.busy++
	b.scaleMu.Unlock()
	for _, j := range batch {
		images = append(images, j.image)
	}
	scores, err := runGuarded(r, images)
	if err == nil && len(scores) != len(batch) {
		err = fmt.Errorf("serve: runner returned %d results for %d images", len(scores), len(batch))
	}
	b.metrics.Batch(len(batch))
	now := time.Now()
	// Idle again before the riders hear back, so a caller that sees its
	// answer also sees the replica free.
	b.scaleMu.Lock()
	b.busy--
	b.scaleMu.Unlock()
	for i, j := range batch {
		res := Result{BatchSize: len(batch), Queued: now.Sub(j.enq)}
		if err != nil {
			res.Err = err
			b.metrics.Fail()
		} else {
			res.Scores = scores[i]
			b.metrics.Complete(now.Sub(j.enq))
		}
		j.done <- res
		b.inflight.Done()
	}
}

// runGuarded converts an inference panic into an error so one poisoned
// batch cannot take its runner loop down.
func runGuarded(r Runner, images [][]float32) (scores [][]float32, err error) {
	defer func() {
		if p := recover(); p != nil {
			scores, err = nil, fmt.Errorf("serve: inference panicked: %v", p)
		}
	}()
	return r.Run(images)
}

// Drain gracefully shuts the batcher down: new submissions are
// rejected with ErrDraining immediately, queued and in-flight requests
// are served to completion, then every runner loop exits. If ctx ends
// first Drain returns its error: the loops are told to stop, whatever
// is still queued is failed with ErrDraining instead of leaving its
// callers waiting, and a batch already inside Run completes on its own
// (Drain does not wait for it — inference is not abortable).
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		b.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		b.stopOnce.Do(func() { close(b.stop) })
		b.loops.Wait()
		return nil
	case <-ctx.Done():
	}
	b.stopOnce.Do(func() { close(b.stop) })
	for {
		select {
		case j := <-b.queue:
			j.done <- Result{Err: ErrDraining}
			b.inflight.Done()
		default:
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		}
	}
}

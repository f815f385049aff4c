package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// This file implements the dynamic micro-batching queue at the heart
// of the serving subsystem. Single-image requests arrive concurrently;
// the approximate GEMM kernels (internal/nn) amortize their fixed
// costs — LUT-row hoisting, operand transposes, worker-pool handoff —
// across rows, so serving each request alone wastes most of the PR 2
// speedup. The batcher coalesces queued requests into one GEMM-friendly
// batch per free replica: a dispatcher acquires a replica, blocks for
// the first request, then gathers more until the batch fills or the
// configured delay elapses. Under load every replica is busy, requests
// accumulate, and batches fill instantly; under light traffic a lone
// request waits at most MaxDelay.

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
	// image in order, or an error that fails every request in it.
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
	done     chan Result // buffered; the dispatcher never blocks on it
}

// Config tunes one Batcher.
type BatcherConfig struct {
	// MaxBatch caps the coalesced batch size (default 8).
	MaxBatch int
	// MaxDelay is how long the dispatcher holds a non-full batch open
	// for stragglers once it has a replica and a first request
	// (default 2ms).
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue (default 4*MaxBatch).
	QueueDepth int
	// MaxRunners bounds how many runners AddRunner may grow the pool
	// to — the autoscaler's ceiling (default 4x the initial runner
	// count, at least 8).
	MaxRunners int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch < 1 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// Batcher coalesces concurrent requests into batches over a fixed set
// of runners. All methods are safe for concurrent use.
type Batcher struct {
	cfg     BatcherConfig
	queue   chan *job
	runners chan Runner
	metrics *Metrics

	// mu guards draining against admission: Do holds the read lock
	// across its inflight.Add, Drain takes the write lock before
	// waiting, so no request can be admitted after draining flips and
	// the WaitGroup wait cannot race an Add.
	mu       sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	// scaleMu guards the live runner count against concurrent
	// AddRunner/RemoveRunner calls (the autoscaler and tests).
	scaleMu  sync.Mutex
	nrunners int

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewBatcher starts a batcher dispatching over the given runners.
// metrics may be nil.
func NewBatcher(runners []Runner, cfg BatcherConfig, metrics *Metrics) *Batcher {
	if len(runners) == 0 {
		panic("serve: batcher needs at least one runner")
	}
	cfg = cfg.withDefaults()
	if cfg.MaxRunners < len(runners) {
		cfg.MaxRunners = 4 * len(runners)
		if cfg.MaxRunners < 8 {
			cfg.MaxRunners = 8
		}
	}
	if metrics == nil {
		metrics = NewMetrics("default")
	}
	b := &Batcher{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		runners:  make(chan Runner, cfg.MaxRunners),
		metrics:  metrics,
		nrunners: len(runners),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	// Callback gauges: a new batcher for the same model (reload, test
	// re-run) replaces the previous closure, so the series always
	// follows the live queue.
	reg := obs.Default()
	reg.GaugeFunc("serve_queue_depth", "Requests waiting in the admission queue.",
		func() float64 { return float64(len(b.queue)) }, "model", metrics.model)
	reg.GaugeFunc("serve_queue_capacity", "Admission queue bound (requests past it are rejected with 429).",
		func() float64 { return float64(cap(b.queue)) }, "model", metrics.model)
	reg.GaugeFunc("serve_replicas_idle", "Replicas currently parked waiting for a batch.",
		func() float64 { return float64(len(b.runners)) }, "model", metrics.model)
	reg.GaugeFunc("serve_replicas_live", "Replicas currently registered with the batcher (idle or computing).",
		func() float64 { return float64(b.Runners()) }, "model", metrics.model)
	for _, r := range runners {
		b.runners <- r
	}
	go b.dispatch()
	return b
}

// Runners returns the number of runners currently registered (idle or
// mid-batch).
func (b *Batcher) Runners() int {
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	return b.nrunners
}

// AddRunner grows the dispatch pool by one runner — the autoscaler's
// scale-up primitive. It fails once the pool holds MaxRunners or the
// batcher is draining.
func (b *Batcher) AddRunner(r Runner) error {
	b.mu.RLock()
	draining := b.draining
	b.mu.RUnlock()
	if draining {
		return ErrDraining
	}
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	if b.nrunners >= b.cfg.MaxRunners {
		return fmt.Errorf("serve: runner pool at its cap of %d", b.cfg.MaxRunners)
	}
	b.nrunners++
	b.runners <- r
	return nil
}

// RemoveRunner retires one idle runner from the pool — the
// autoscaler's scale-down primitive. It reports false (and removes
// nothing) when only one runner remains or every runner is mid-batch;
// the caller simply retries at its next tick.
func (b *Batcher) RemoveRunner() bool {
	b.scaleMu.Lock()
	defer b.scaleMu.Unlock()
	if b.nrunners <= 1 {
		return false
	}
	select {
	case <-b.runners:
		b.nrunners--
		return true
	default:
		return false
	}
}

// Metrics returns the batcher's metrics aggregator.
func (b *Batcher) Metrics() *Metrics { return b.metrics }

// Do submits one image and blocks until its batch has been served (or
// the request was rejected/expired). deadline zero means no deadline.
func (b *Batcher) Do(ctx context.Context, image []float32, deadline time.Time) Result {
	j := &job{image: image, deadline: deadline, enq: time.Now(), done: make(chan Result, 1)}
	if err := b.admit(j); err != nil {
		b.metrics.Reject()
		return Result{Err: err}
	}
	// The dispatcher always answers an admitted job, so waiting only on
	// j.done cannot hang; ctx is checked to give disconnected callers a
	// prompt error (the batch still runs — inference is not abortable).
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
	// Count the job before it is visible to the dispatcher: a batch can
	// be gathered, served and Done()d before a post-enqueue Add(1) runs,
	// taking the counter negative.
	b.inflight.Add(1)
	select {
	case b.queue <- j:
		return nil
	default:
		b.inflight.Done()
		return ErrOverloaded
	}
}

// dispatch is the batching loop: acquire a replica, gather a batch,
// hand it off, repeat. Handing the batch to a goroutine lets the
// dispatcher start gathering for the next free replica while this one
// computes.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		var r Runner
		select {
		case r = <-b.runners:
		case <-b.stop:
			return
		}
		batch := b.gather()
		if batch == nil {
			b.runners <- r
			return
		}
		go b.run(r, batch)
	}
}

// gather blocks for the first live job, then keeps the batch open for
// stragglers until it fills or MaxDelay elapses. It returns nil when
// the batcher is stopping.
func (b *Batcher) gather() []*job {
	var batch []*job
	for batch == nil {
		select {
		case j := <-b.queue:
			if b.expired(j) {
				continue
			}
			batch = append(batch, j)
		case <-b.stop:
			return nil
		}
	}
	if b.cfg.MaxBatch > 1 {
		timer := time.NewTimer(b.cfg.MaxDelay)
		defer timer.Stop()
		for len(batch) < b.cfg.MaxBatch {
			select {
			case j := <-b.queue:
				if b.expired(j) {
					continue
				}
				batch = append(batch, j)
			case <-timer.C:
				return batch
			}
		}
	}
	return batch
}

// expired fails a job whose deadline passed while it queued.
func (b *Batcher) expired(j *job) bool {
	if j.deadline.IsZero() || time.Now().Before(j.deadline) {
		return false
	}
	b.metrics.Expire()
	j.done <- Result{Err: ErrDeadlineExceeded, Queued: time.Since(j.enq)}
	b.inflight.Done()
	return true
}

// run executes one batch on a replica and answers every rider.
func (b *Batcher) run(r Runner, batch []*job) {
	defer func() { b.runners <- r }()
	// Dispatch-time deadline sweep: gather() rejects jobs that are
	// already expired when pulled off the queue, but a job admitted to
	// the batch can still expire while the batch is held open for
	// stragglers (MaxDelay). Serving it anyway would burn replica time
	// on an answer the caller was promised would be a 504 — so expiry
	// is re-checked at the last moment before compute, and a batch
	// whose riders all expired never reaches the replica.
	live := batch[:0]
	for _, j := range batch {
		if b.expired(j) {
			continue
		}
		live = append(live, j)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	images := make([][]float32, len(batch))
	for i, j := range batch {
		images[i] = j.image
	}
	scores, err := runGuarded(r, images)
	if err == nil && len(scores) != len(batch) {
		err = fmt.Errorf("serve: runner returned %d results for %d images", len(scores), len(batch))
	}
	b.metrics.Batch(len(batch))
	now := time.Now()
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
// batch cannot take the dispatcher down.
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
// are served to completion, then the dispatcher exits. It returns
// ctx's error if the drain does not finish in time (the dispatcher is
// still stopped; unfinished requests keep their pending state).
func (b *Batcher) Drain(ctx context.Context) error {
	b.mu.Lock()
	b.draining = true
	b.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		b.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
	if err != nil {
		// Timed out: the dispatcher has exited, so jobs still queued
		// will never be served — fail them instead of leaving their
		// callers waiting. In-flight batches still complete on their
		// own goroutines.
		for {
			select {
			case j := <-b.queue:
				j.done <- Result{Err: ErrDraining}
				b.inflight.Done()
			default:
				return err
			}
		}
	}
	return nil
}

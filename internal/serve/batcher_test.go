package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubRunner echoes each image's first value as its score and records
// the batch sizes it served. An optional gate blocks Run until released,
// letting tests pin the replica "busy" deterministically.
type stubRunner struct {
	mu      sync.Mutex
	batches []int
	entered chan struct{} // when non-nil, receives once per Run entry
	gate    chan struct{} // when non-nil, Run blocks until it can receive
	fail    error
	panics  bool
}

func (s *stubRunner) Run(images [][]float32) ([][]float32, error) {
	if s.entered != nil {
		select {
		case s.entered <- struct{}{}:
		default:
		}
	}
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.batches = append(s.batches, len(images))
	s.mu.Unlock()
	if s.panics {
		panic("stub runner poisoned")
	}
	if s.fail != nil {
		return nil, s.fail
	}
	out := make([][]float32, len(images))
	for i, img := range images {
		out[i] = []float32{img[0]}
	}
	return out, nil
}

func (s *stubRunner) batchSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batches...)
}

// awaitQueued waits until n requests sit in the admission queue.
func awaitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued after 5s", len(b.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherCoalescesAndRoutes: requests that arrive while the only
// replica is busy ride together in the batch it pulls when it comes
// free, and every rider gets its own image's answer.
func TestBatcherCoalescesAndRoutes(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 8, QueueDepth: 32}, freshMetrics(t))
	defer b.Drain(context.Background())

	wait := occupy(t, b, r)
	const n = 8
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.Do(context.Background(), []float32{float32(i)}, time.Time{})
		}(i)
	}
	awaitQueued(t, b, n)
	close(r.gate)
	wg.Wait()
	wait()

	if got := r.batchSizes(); len(got) != 2 || got[0] != 1 || got[1] != n {
		t.Errorf("batch sizes %v, want [1 %d]: the queued requests must leave as one batch", got, n)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		if len(res.Scores) != 1 || res.Scores[0] != float32(i) {
			t.Errorf("request %d got scores %v, want [%d] (misrouted)", i, res.Scores, i)
		}
		if res.BatchSize != n {
			t.Errorf("request %d reports batch size %d, want %d", i, res.BatchSize, n)
		}
	}
	if st := b.metrics.Snapshot(); st.Completed != n+1 || st.Batches != 2 {
		t.Errorf("completed=%d batches=%d, want %d/2", st.Completed, st.Batches, n+1)
	}
}

// TestBatcherLoneRequestDispatchesAtOnce: an idle replica does not
// hold a request back for riders. With MaxBatch 8 and no second
// request ever sent, the lone one is served in a batch of one.
func TestBatcherLoneRequestDispatchesAtOnce(t *testing.T) {
	r := &stubRunner{}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 8}, nil)
	res := b.Do(context.Background(), []float32{9}, time.Time{})
	if res.Err != nil || res.BatchSize != 1 || res.Scores[0] != 9 {
		t.Fatalf("lone request: %+v, want scores [9] in a batch of 1", res)
	}
	if got := r.batchSizes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("runner served batches %v, want [1]", got)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// occupy blocks the gated runner with one request and waits until that
// request has entered Run, so subsequent submissions interact with a
// deterministically busy batcher. Returns a wait function for the
// occupying request.
func occupy(t *testing.T, b *Batcher, r *stubRunner) (done func() Result) {
	t.Helper()
	ch := make(chan Result, 1)
	go func() { ch <- b.Do(context.Background(), []float32{-1}, time.Time{}) }()
	select {
	case <-r.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("occupying request never reached the runner")
	}
	return func() Result { return <-ch }
}

func TestBatcherOverloadRejects(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 1, QueueDepth: 2}, freshMetrics(t))

	wait := occupy(t, b, r)
	// Fill the queue to its depth, then one more must bounce.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Do(context.Background(), []float32{0}, time.Time{})
		}()
	}
	awaitQueued(t, b, 2)
	res := b.Do(context.Background(), []float32{0}, time.Time{})
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("overflow request got %v, want ErrOverloaded", res.Err)
	}
	if st := b.metrics.Snapshot(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	close(r.gate) // release everything
	wait()
	wg.Wait()
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatcherQueuePeakOutlivesTheQueue: the high-water depth the
// autoscaler decides on still shows a burst after a replica has drained
// the queue — when the serve_queue_depth gauge reads zero again — and a
// read starts the next interval from the present depth.
func TestBatcherQueuePeakOutlivesTheQueue(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 4, QueueDepth: 4}, nil)

	wait := occupy(t, b, r)
	b.QueuePeak() // forget the occupying request
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Do(context.Background(), []float32{0}, time.Time{})
		}()
	}
	awaitQueued(t, b, 3)
	close(r.gate)
	wait()
	wg.Wait()
	if n := len(b.queue); n != 0 {
		t.Fatalf("%d requests still queued after every caller was answered", n)
	}
	if got := b.QueuePeak(); got != 3 {
		t.Errorf("high-water depth over a burst of 3 = %d", got)
	}
	if got := b.QueuePeak(); got != 0 {
		t.Errorf("high-water depth of an idle interval = %d, want 0", got)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestBatcherDeadlineWhileQueued(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 1, QueueDepth: 8}, freshMetrics(t))

	wait := occupy(t, b, r)
	ch := make(chan Result, 1)
	go func() {
		ch <- b.Do(context.Background(), []float32{1}, time.Now().Add(10*time.Millisecond))
	}()
	time.Sleep(30 * time.Millisecond) // let the deadline lapse while queued
	close(r.gate)
	if res := <-ch; !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("stale request got %v, want ErrDeadlineExceeded", res.Err)
	}
	if res := wait(); res.Err != nil {
		t.Fatalf("occupying request failed: %v", res.Err)
	}
	if st := b.metrics.Snapshot(); st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatcherGracefulDrain is the shutdown contract: requests in flight
// or already queued when Drain begins complete normally; requests
// submitted after Drain begins are rejected with ErrDraining.
func TestBatcherGracefulDrain(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 4, QueueDepth: 16}, nil)

	wait := occupy(t, b, r)
	const queued = 3
	pending := make(chan Result, queued)
	for i := 0; i < queued; i++ {
		go func() { pending <- b.Do(context.Background(), []float32{2}, time.Time{}) }()
	}
	awaitQueued(t, b, queued)

	drained := make(chan error, 1)
	go func() { drained <- b.Drain(context.Background()) }()
	// Wait for Drain to flip admission (its first action), then new
	// submissions must bounce immediately.
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.RLock()
		d := b.draining
		b.mu.RUnlock()
		if d {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("Drain never flipped the draining flag")
		}
		time.Sleep(time.Millisecond)
	}
	if res := b.Do(context.Background(), []float32{3}, time.Time{}); !errors.Is(res.Err, ErrDraining) {
		t.Fatalf("post-drain submission got %v, want ErrDraining", res.Err)
	}

	close(r.gate) // let the in-flight batch and the queued jobs run
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res := wait(); res.Err != nil {
		t.Errorf("in-flight request failed during drain: %v", res.Err)
	}
	for i := 0; i < queued; i++ {
		if res := <-pending; res.Err != nil {
			t.Errorf("queued request failed during drain: %v", res.Err)
		}
	}
	// Drain is idempotent.
	if err := b.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestBatcherDrainTimeoutFailsQueued(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 1, QueueDepth: 8}, nil)

	wait := occupy(t, b, r)
	queuedRes := make(chan Result, 1)
	go func() { queuedRes <- b.Do(context.Background(), []float32{4}, time.Time{}) }()
	awaitQueued(t, b, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	// The queued job must have been answered, not abandoned.
	if res := <-queuedRes; !errors.Is(res.Err, ErrDraining) {
		t.Fatalf("queued request got %v, want ErrDraining", res.Err)
	}
	close(r.gate) // in-flight batch still completes on its own
	if res := wait(); res.Err != nil {
		t.Errorf("in-flight request failed: %v", res.Err)
	}
}

func TestBatcherRunnerPanicIsContained(t *testing.T) {
	r := &stubRunner{panics: true}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 2}, freshMetrics(t))

	res := b.Do(context.Background(), []float32{5}, time.Time{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("got %v, want inference-panicked error", res.Err)
	}
	// The dispatcher survives and keeps serving.
	r.panics = false
	if res := b.Do(context.Background(), []float32{6}, time.Time{}); res.Err != nil {
		t.Fatalf("batcher dead after panic: %v", res.Err)
	}
	if st := b.metrics.Snapshot(); st.Failed != 1 || st.Completed != 1 {
		t.Errorf("failed=%d completed=%d, want 1/1", st.Failed, st.Completed)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestBatcherContextCancelledCaller(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 1, QueueDepth: 4}, nil)

	wait := occupy(t, b, r)
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan Result, 1)
	go func() { ch <- b.Do(ctx, []float32{7}, time.Time{}) }()
	awaitQueued(t, b, 1)
	cancel()
	if res := <-ch; !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", res.Err)
	}
	// The batch still runs (inference is not abortable) and the batcher
	// drains cleanly afterwards.
	close(r.gate)
	wait()
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatcherExpiredAtPullLiveRiderServed: the pull is where a deadline
// is checked. Of two requests queued behind a busy replica, the one
// whose deadline lapsed is answered ErrDeadlineExceeded without
// reaching Run; the live one is served in a batch of one.
func TestBatcherExpiredAtPullLiveRiderServed(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 4, QueueDepth: 8}, freshMetrics(t))

	wait := occupy(t, b, r)
	deadline := time.Now().Add(10 * time.Millisecond)
	expCh, liveCh := make(chan Result, 1), make(chan Result, 1)
	go func() { expCh <- b.Do(context.Background(), []float32{1}, deadline) }()
	go func() { liveCh <- b.Do(context.Background(), []float32{2}, time.Time{}) }()
	awaitQueued(t, b, 2)
	time.Sleep(time.Until(deadline) + time.Millisecond)
	close(r.gate)

	if res := <-expCh; !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("expired rider got %v, want ErrDeadlineExceeded", res.Err)
	}
	res := <-liveCh
	if res.Err != nil || res.BatchSize != 1 || res.Scores[0] != 2 {
		t.Fatalf("live rider: %+v, want scores [2] in a batch of 1 (the expired rider must not count)", res)
	}
	wait()
	if got := r.batchSizes(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("runner served batches %v, want [1 1] (occupier, then the live rider alone)", got)
	}
	if st := b.metrics.Snapshot(); st.Expired != 1 || st.Completed != 2 {
		t.Errorf("expired=%d completed=%d, want 1/2", st.Expired, st.Completed)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatcherSaturationShedsAndAnswersAdmitted: offered twice what the
// queue holds while the replica is busy, the batcher admits exactly a
// queue's worth, sheds the rest with ErrOverloaded at once, and answers
// every request it admitted.
func TestBatcherSaturationShedsAndAnswersAdmitted(t *testing.T) {
	r := &stubRunner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	const depth = 8
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 4, QueueDepth: depth}, freshMetrics(t))

	wait := occupy(t, b, r)
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	for i := 0; i < 2*depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch res := b.Do(context.Background(), []float32{float32(i)}, time.Time{}); {
			case errors.Is(res.Err, ErrOverloaded):
				shed.Add(1)
			case res.Err != nil || res.Scores[0] != float32(i):
				t.Errorf("admitted request %d: %+v", i, res)
			default:
				served.Add(1)
			}
		}(i)
	}
	awaitQueued(t, b, depth)
	for deadline := time.Now().Add(5 * time.Second); shed.Load() < depth && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if served.Load() != 0 {
		t.Fatalf("%d requests served while the only replica is gated", served.Load())
	}
	close(r.gate)
	wg.Wait()
	wait()
	if served.Load() != depth || shed.Load() != depth {
		t.Errorf("served %d, shed %d of %d offered; want %d/%d", served.Load(), shed.Load(), 2*depth, depth, depth)
	}
	if st := b.metrics.Snapshot(); st.Rejected != depth || st.Completed != depth+1 {
		t.Errorf("rejected=%d completed=%d, want %d/%d", st.Rejected, st.Completed, depth, depth+1)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestBatcherRunnerScaling(t *testing.T) {
	r := &stubRunner{}
	b := NewBatcher([]Runner{r}, BatcherConfig{MaxBatch: 2, QueueDepth: 4}, nil)

	if n := b.Runners(); n != 1 {
		t.Fatalf("initial runners = %d, want 1", n)
	}
	// The cap is 4x the initial runner count, at least 8.
	const maxRunners = 8
	for i := 1; i < maxRunners; i++ {
		if err := b.AddRunner(&stubRunner{}); err != nil {
			t.Fatalf("AddRunner to %d runners: %v", i+1, err)
		}
	}
	if err := b.AddRunner(&stubRunner{}); err == nil {
		t.Fatalf("AddRunner past the cap of %d succeeded", maxRunners)
	}
	if n := b.Runners(); n != maxRunners {
		t.Fatalf("runners = %d, want %d", n, maxRunners)
	}
	for i := maxRunners; i > 1; i-- {
		if !b.RemoveRunner() {
			t.Fatalf("RemoveRunner with %d idle runners failed", i)
		}
	}
	if b.RemoveRunner() {
		t.Fatal("RemoveRunner went below the floor of 1")
	}
	// The surviving runner still serves.
	if res := b.Do(context.Background(), []float32{3}, time.Time{}); res.Err != nil {
		t.Fatalf("post-scaling request: %v", res.Err)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := b.AddRunner(&stubRunner{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("AddRunner while draining got %v, want ErrDraining", err)
	}
}

// TestBatcherRemoveRunnerNeedsIdle: idle means registered and not
// inside a batch. With both runners gated mid-batch there is nothing to
// retire; once they are released one can go.
func TestBatcherRemoveRunnerNeedsIdle(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{}, 2)
	b := NewBatcher([]Runner{&stubRunner{gate: gate, entered: entered}, &stubRunner{gate: gate, entered: entered}},
		BatcherConfig{MaxBatch: 1}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Do(context.Background(), []float32{0}, time.Time{})
		}()
		<-entered
	}
	if b.RemoveRunner() {
		t.Fatal("RemoveRunner retired a runner while every runner was mid-batch")
	}
	close(gate)
	wg.Wait()
	if !b.RemoveRunner() {
		t.Fatal("RemoveRunner failed once the runners were idle again")
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatcherAdmitCountsBeforeEnqueue: a job must be counted in flight
// before the dispatcher can see it. With batches that complete as fast
// as they form (MaxBatch 1, or MaxBatch 2 filled instantly, over a
// no-op runner) a batch used to be served and Done()d before its
// rider's Add(1) ran; with nothing else in flight at that moment — a
// few callers, not a crowd — the counter went negative and "sync:
// negative WaitGroup counter" killed the process. Every admitted job
// must be answered and Drain must find the counter balanced.
func TestBatcherAdmitCountsBeforeEnqueue(t *testing.T) {
	for _, maxBatch := range []int{1, 2} {
		b := NewBatcher([]Runner{&stubRunner{}}, BatcherConfig{MaxBatch: maxBatch, QueueDepth: 4}, nil)
		const callers, each = 4, 20000
		var wg sync.WaitGroup
		var answered, rejected atomic.Int64
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					switch res := b.Do(context.Background(), []float32{float32(c)}, time.Time{}); {
					case res.Err == ErrOverloaded:
						rejected.Add(1)
					case res.Err != nil || len(res.Scores) != 1 || res.Scores[0] != float32(c):
						t.Errorf("caller %d: %+v", c, res)
					default:
						answered.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := b.Drain(ctx); err != nil {
			t.Errorf("MaxBatch %d: drain: %v", maxBatch, err)
		}
		cancel()
		if got := answered.Load() + rejected.Load(); got != callers*each || answered.Load() == 0 {
			t.Errorf("MaxBatch %d: %d answered + %d rejected of %d submitted", maxBatch, answered.Load(), rejected.Load(), callers*each)
		}
	}
}

// fixedRunner answers from a preallocated table, so a Do through it
// allocates only what the batcher itself does.
type fixedRunner struct{ out [][]float32 }

func (f *fixedRunner) Run(images [][]float32) ([][]float32, error) { return f.out[:len(images)], nil }

// TestBatcherDoAllocs pins what one request costs the allocator on the
// batcher's side: the job and its answer channel (header and buffer),
// and nothing per batch — the loop's batch and image slices are reused.
func TestBatcherDoAllocs(t *testing.T) {
	b := NewBatcher([]Runner{&fixedRunner{out: [][]float32{{1}}}}, BatcherConfig{MaxBatch: 1}, nil)
	img := []float32{1}
	if allocs := testing.AllocsPerRun(500, func() { b.Do(context.Background(), img, time.Time{}) }); allocs > 3 {
		t.Errorf("Batcher.Do allocates %v times per request, want <= 3", allocs)
	}
	if err := b.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

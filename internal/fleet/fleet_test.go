package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/serve"
	"github.com/appmult/retrain/internal/wire"
	"github.com/appmult/retrain/internal/wiretest"
)

// fleetSpec is the small deterministic model every e2e test serves:
// same seed everywhere, so every worker holds bit-identical weights.
func fleetSpec() serve.Spec {
	return serve.Spec{Name: "m", Kind: "lenet", Classes: 3, InputHW: 8, Width: 0.08,
		MaxBatch: 8, Replicas: 1, Seed: 7}
}

func testImage(rng *rand.Rand) []float32 {
	img := make([]float32, 3*8*8)
	for i := range img {
		img[i] = rng.Float32()*2 - 1
	}
	return img
}

// startWorker launches a worker joining addr and returns its cancel
// func plus a channel closed when Run returns.
func startWorker(t *testing.T, cfg WorkerConfig) (context.CancelFunc, chan struct{}) {
	t.Helper()
	cfg.Dial = wire.Backoff{Base: 10 * time.Millisecond, Jitter: -1}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return cancel, done
}

func startRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestFleetEndToEndAndCacheBitIdentity(t *testing.T) {
	r := startRouter(t, RouterConfig{CacheBytes: 1 << 20})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	if err := r.AwaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	img := testImage(rng)
	ctx := context.Background()

	fresh, meta, err := r.Predict(ctx, "m", img, 0)
	if err != nil {
		t.Fatalf("fresh predict: %v", err)
	}
	if meta.Cached || len(fresh) != 3 {
		t.Fatalf("fresh predict: cached=%v scores=%v", meta.Cached, fresh)
	}

	// Same image again: a cache hit, bit-identical to the fresh compute.
	hit, meta2, err := r.Predict(ctx, "m", img, 0)
	if err != nil {
		t.Fatalf("repeat predict: %v", err)
	}
	if !meta2.Cached {
		t.Fatal("repeat of an identical image missed the cache")
	}
	for i := range fresh {
		if math.Float32bits(fresh[i]) != math.Float32bits(hit[i]) {
			t.Fatalf("cache hit differs at %d: %x vs %x", i, math.Float32bits(fresh[i]), math.Float32bits(hit[i]))
		}
	}

	// A nearby image inside the same quantization cell shares the key —
	// and because the router canonicalizes inputs onto the grid before
	// dispatch, its answer is the same bytes whether it hits or computes.
	near := append([]float32(nil), img...)
	near[0] += 0.001 // grid step is 6/255 ≈ 0.024
	nearScores, meta3, err := r.Predict(ctx, "m", near, 0)
	if err != nil {
		t.Fatalf("near predict: %v", err)
	}
	if !meta3.Cached {
		t.Fatal("neighbor inside the grid cell missed the cache")
	}
	for i := range fresh {
		if math.Float32bits(fresh[i]) != math.Float32bits(nearScores[i]) {
			t.Fatalf("neighbor hit differs at %d", i)
		}
	}

	// A genuinely different image computes fresh.
	if _, meta4, err := r.Predict(ctx, "m", testImage(rng), 0); err != nil || meta4.Cached {
		t.Fatalf("distinct image: err=%v cached=%v", err, meta4.Cached)
	}

	// Error paths.
	if _, _, err := r.Predict(ctx, "nope", img, 0); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, _, err := r.Predict(ctx, "m", img[:5], 0); err == nil {
		t.Fatal("short image accepted")
	}
}

func TestFleetWorkerKillFailoverNoLostResponses(t *testing.T) {
	beforeFailovers := failovers.Value()
	r := startRouter(t, RouterConfig{
		HeartbeatEvery:   20 * time.Millisecond,
		HeartbeatTimeout: 300 * time.Millisecond,
	})

	// Worker 1's connection is held so the test can sever it abruptly —
	// the moral equivalent of kill -9 mid-request.
	var w1conn atomic.Pointer[net.Conn]
	var lag atomic.Bool
	cancel1, done1 := startWorker(t, WorkerConfig{
		Router: r.Addr(),
		Models: []serve.Spec{fleetSpec()},
		// Once armed, every answer worker 1 writes straggles 60ms, so
		// its share of the requests is still outstanding at the router
		// when the kill lands.
		WrapConn: func(c net.Conn) net.Conn {
			w1conn.Store(&c)
			return &laggedConn{Conn: c, armed: &lag, delay: 60 * time.Millisecond}
		},
	})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	if err := r.AwaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lag.Store(true)

	const n = 24
	rng := rand.New(rand.NewSource(13))
	images := make([][]float32, n)
	for i := range images {
		images[i] = testImage(rng)
	}
	var wg sync.WaitGroup
	results := make([]error, n)
	answered := make([]int32, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := r.Predict(context.Background(), "m", images[i], 0)
			atomic.AddInt32(&answered[i], 1)
			results[i] = err
		}(i)
	}

	// Let the router spread the requests, then kill worker 1 while its
	// lagged connection still owes the answers to roughly half of them.
	time.Sleep(20 * time.Millisecond)
	cancel1()
	if cp := w1conn.Load(); cp != nil {
		(*cp).Close()
	}
	wg.Wait()
	<-done1

	for i, err := range results {
		if err != nil {
			t.Errorf("request %d lost across the kill: %v", i, err)
		}
		if got := atomic.LoadInt32(&answered[i]); got != 1 {
			t.Errorf("request %d answered %d times", i, got)
		}
	}
	if got := failovers.Value() - beforeFailovers; got < 1 {
		t.Errorf("fleet_failover_total rose by %v, want >= 1", got)
	}
	if r.Workers() != 1 {
		t.Errorf("router still counts %d workers after the kill", r.Workers())
	}
}

// laggedConn delays every write once armed, simulating a worker whose
// responses straggle without being dead.
type laggedConn struct {
	net.Conn
	armed *atomic.Bool
	delay time.Duration
}

func (c *laggedConn) Write(b []byte) (int, error) {
	if c.armed.Load() {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(b)
}

func TestFleetHedgingTrimsSlowReplica(t *testing.T) {
	beforeHedges, beforeWins := hedges.Value(), hedgeWins.Value()
	r := startRouter(t, RouterConfig{
		Hedge:    true,
		HedgeMin: 10 * time.Millisecond,
	})
	var lag atomic.Bool
	startWorker(t, WorkerConfig{
		Router: r.Addr(),
		Models: []serve.Spec{fleetSpec()},
		WrapConn: func(c net.Conn) net.Conn {
			return &laggedConn{Conn: c, armed: &lag, delay: 200 * time.Millisecond}
		},
	})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	if err := r.AwaitWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lag.Store(true)

	rng := rand.New(rand.NewSource(17))
	sawHedge := false
	for i := 0; i < 8; i++ {
		start := time.Now()
		_, meta, err := r.Predict(context.Background(), "m", testImage(rng), 0)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if meta.Hedged {
			sawHedge = true
			// A hedged request must not have waited out the slow
			// replica's full 200ms lag.
			if d := time.Since(start); d > 150*time.Millisecond {
				t.Errorf("hedged request %d still took %s", i, d)
			}
		}
	}
	if !sawHedge {
		t.Error("no request reported hedging against a 200ms-lagged replica")
	}
	if hedges.Value() <= beforeHedges {
		t.Error("fleet_hedges_total did not rise")
	}
	if hedgeWins.Value() <= beforeWins {
		t.Error("fleet_hedge_wins_total did not rise")
	}
}

func TestFleetHTTPHandler(t *testing.T) {
	r := startRouter(t, RouterConfig{CacheBytes: 1 << 20})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	if err := r.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(19))
	body, _ := json.Marshal(PredictRequest{Image: testImage(rng)}) // model elided: single-model fleet
	resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "m" || len(pr.Scores) != 3 || pr.Attempts != 1 {
		t.Fatalf("predict response %+v", pr)
	}

	// A wrong-sized image is the client's fault: ErrBadRequest, 400.
	if _, _, err := r.Predict(context.Background(), "m", make([]float32, 5), 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("short image: %v, want ErrBadRequest", err)
	}
	body, _ = json.Marshal(PredictRequest{Image: make([]float32, 5)})
	if resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 400 {
		t.Errorf("short image status %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/v1/models", "/healthz", "/fleetz", "/metrics"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}
}

// TestFleetHTTPTimeoutSaturates: both tiers' /v1/predict handlers turn
// timeout_ms into a deadline without wrapping. Milliseconds past the
// largest Duration mean no deadline in serve and the 30 s cap in the
// router, as the largest value that fits does. The plain product
// wrapped: 9,300,000,000,000 ms read as −2,540,762 h (serve answered
// 504 at once) and 18,446,744,073,710 ms as 448 µs, which the router
// cannot meet against a worker that lags every write 5 ms.
func TestFleetHTTPTimeoutSaturates(t *testing.T) {
	spec := fleetSpec()
	spec.Name = "timeout"
	m, err := serve.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.NewServer(m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	r := startRouter(t, RouterConfig{})
	lag := new(atomic.Bool)
	lag.Store(true)
	startWorker(t, WorkerConfig{
		Router: r.Addr(),
		Models: []serve.Spec{fleetSpec()},
		WrapConn: func(c net.Conn) net.Conn {
			return &laggedConn{Conn: c, armed: lag, delay: 5 * time.Millisecond}
		},
	})
	if err := r.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		h    http.Handler
	}{{"serve", s.Handler()}, {"router", r.Handler()}}
	img := testImage(rand.New(rand.NewSource(31)))
	for _, c := range []struct {
		ms   int
		want time.Duration
	}{
		{0, 0},
		{-1, 0},
		{250, 250 * time.Millisecond},
		{9_300_000_000_000, math.MaxInt64},
		{18_446_744_073_710, math.MaxInt64},
	} {
		req := PredictRequest{Image: img, TimeoutMS: c.ms} // model elided: one per tier
		if got := req.Timeout(); got != c.want {
			t.Errorf("timeout_ms %d: Timeout() = %v, want %v", c.ms, got, c.want)
		}
		body, _ := json.Marshal(req)
		for _, tier := range tiers {
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("%s, timeout_ms %d: %d %s, want 200", tier.name, c.ms, rec.Code, rec.Body)
			}
		}
	}
}

// spaceReader yields n spaces, counting those read.
type spaceReader struct{ n, read int64 }

func (c *spaceReader) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, io.EOF
	}
	k := int(min(int64(len(p)), c.n))
	for i := range p[:k] {
		p[i] = ' '
	}
	c.n -= int64(k)
	c.read += int64(k)
	return k, nil
}

// TestFleetHTTPBodyCap: the router refuses a body one byte over
// serve.DecodePredictRequest's 8 MiB cap with 413, reading no further.
func TestFleetHTTPBodyCap(t *testing.T) {
	const maxBody = 8 << 20
	r := startRouter(t, RouterConfig{})
	for _, c := range []struct {
		n    int64
		want int
	}{{maxBody, http.StatusBadRequest}, {maxBody + 1, http.StatusRequestEntityTooLarge}, {maxBody + 1<<20, http.StatusRequestEntityTooLarge}} {
		body := &spaceReader{n: c.n}
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", body))
		if rec.Code != c.want {
			t.Errorf("body of %d bytes: %d %s, want %d", c.n, rec.Code, rec.Body, c.want)
		}
		if body.read > maxBody+1 {
			t.Errorf("body of %d bytes: read %d, want at most %d", c.n, body.read, maxBody+1)
		}
	}
}

// crashConn stops delivering writes once crashed is set: the peer sees
// its socket die with nothing further on it.
type crashConn struct {
	net.Conn
	crashed *atomic.Bool
}

func (c *crashConn) Write(b []byte) (int, error) {
	if c.crashed.Load() {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

func TestFleetWorkerReconnectsAfterRouterRestart(t *testing.T) {
	var crashed atomic.Bool
	r := startRouter(t, RouterConfig{WrapConn: func(c net.Conn) net.Conn {
		return &crashConn{Conn: c, crashed: &crashed}
	}})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	if err := r.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	addr := r.Addr()
	// Crash the router abruptly: no Bye frame reaches the worker (that
	// would be a clean dismissal), just dead sockets — it must redial.
	crashed.Store(true)
	r.Close()

	// A new router on the same address picks the worker back up.
	r2, err := NewRouter(RouterConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatalf("worker never rejoined: %v", err)
	}
	rng := rand.New(rand.NewSource(23))
	if _, _, err := r2.Predict(context.Background(), "m", testImage(rng), 0); err != nil {
		t.Fatalf("predict after rejoin: %v", err)
	}
}

func TestFleetAutoscaleGrowsUnderLoad(t *testing.T) {
	spec := fleetSpec()
	spec.QueueDepth = 8
	r := startRouter(t, RouterConfig{MaxInflight: 64})
	startWorker(t, WorkerConfig{
		Router:         r.Addr(),
		Models:         []serve.Spec{spec},
		Autoscale:      true,
		autoscaleEvery: 10 * time.Millisecond,
	})
	if err := r.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(29))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		img := testImage(rng)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Predict(context.Background(), "m", img, 0)
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	before := autoscaleEvents("m", "up").Value()
	grew := false
	for time.Now().Before(deadline) {
		if autoscaleEvents("m", "up").Value() > before {
			grew = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !grew {
		t.Error("autoscaler never added a replica under sustained queue pressure")
	}
}

// serveCount reads one serve_* counter of the named model from the
// registry the worker's batcher reports to.
func serveCount(model, name string, labels ...string) float64 {
	v, _ := obs.Default().ReadValue(name, append([]string{"model", model}, labels...)...)
	return v
}

// TestFleetDeadlineExpiresInWorkerQueue: a routed request's timeout
// travels to the worker as its queue deadline, so under saturation it
// expires in the worker's batcher — counted there as expired, and never
// handed to the replica: with MaxBatch 1 every batch is one image, so
// the replica saw exactly the completed requests and none of the
// expired ones.
func TestFleetDeadlineExpiresInWorkerQueue(t *testing.T) {
	spec := fleetSpec()
	spec.Name, spec.MaxBatch, spec.QueueDepth = "q", 1, 256
	r := startRouter(t, RouterConfig{})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{spec}})
	if err := r.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The registry outlives a test run (-count), so count from here.
	outcomes := func() (completed, expired, batches float64) {
		return serveCount("q", "serve_requests_total", "outcome", "completed"),
			serveCount("q", "serve_requests_total", "outcome", "expired"),
			serveCount("q", "serve_batches_total")
	}
	completed0, expired0, batches0 := outcomes()

	// 64 closed-loop callers without a deadline keep the one replica
	// busy and the queue dozens deep.
	rng := rand.New(rand.NewSource(37))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent atomic.Int64
	for g := 0; g < 64; g++ {
		wg.Add(1)
		img := testImage(rng)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sent.Add(1)
					if _, _, err := r.Predict(context.Background(), "q", img, 0); err != nil {
						t.Errorf("background request: %v", err)
						return
					}
				}
			}
		}()
	}
	// Behind that queue a 1ms budget cannot reach the replica in time.
	img := testImage(rng)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if _, e, _ := outcomes(); e > expired0 {
			break
		}
		sent.Add(1)
		if _, _, err := r.Predict(context.Background(), "q", img, time.Millisecond); err == nil {
			continue // slipped through a momentarily short queue
		} else if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("1ms request under saturation: %v, want ErrDeadlineExceeded", err)
		}
	}
	close(stop)
	wg.Wait()

	// The router gives up on its own timer; the worker answers every
	// frame regardless. Wait until it has accounted for all of them.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if c, e, _ := outcomes(); c-completed0+e-expired0 == float64(sent.Load()) {
			break
		}
	}
	completed, expired, batches := outcomes()
	completed, expired, batches = completed-completed0, expired-expired0, batches-batches0
	if expired < 1 || completed+expired != float64(sent.Load()) {
		t.Fatalf("worker batcher: %v completed + %v expired of %d sent, want every request one or the other and some expired",
			completed, expired, sent.Load())
	}
	if batches != completed {
		t.Errorf("replica ran %v one-image batches for %v completed requests: an expired request reached it", batches, completed)
	}
}

// TestFleetWorkerOutlivesHandshakeWindow: admission must clear the read
// deadline that bounded the handshake — the last SetReadDeadline the
// router issues on the connection is the zero time — so an idle worker
// is still registered, with no death counted, once the handshake window
// has elapsed. (The router used to stop re-arming the deadline but
// leave the armed one in place, dropping every worker 10 s after it
// joined and answering 503 until it was back.)
func TestFleetWorkerOutlivesHandshakeWindow(t *testing.T) {
	var dl wiretest.Deadlines
	r := startRouter(t, RouterConfig{WrapConn: dl.Wrap})
	startWorker(t, WorkerConfig{Router: r.Addr(), Models: []serve.Spec{fleetSpec()}})
	if err := r.AwaitWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lost := proto.Metrics.WorkersLost.Value()
	dl.AwaitWindow(t)
	if n := r.Workers(); n != 1 || proto.Metrics.WorkersLost.Value() != lost {
		t.Fatalf("after the handshake window: %d workers registered, fleet_workers_lost_total moved by %v",
			n, proto.Metrics.WorkersLost.Value()-lost)
	}
	if _, _, err := r.Predict(context.Background(), "m", testImage(rand.New(rand.NewSource(31))), 0); err != nil {
		t.Fatalf("predict after the handshake window: %v", err)
	}
}

// TestHedgedCompletionsLeaveHedgeDelayAlone: the hedge deadline tracks
// plain worker round trips only. A hedged completion is at least one
// hedge deadline long, so letting it (or a microsecond cache hit) into
// the window would make every hedge move the next deadline.
func TestHedgedCompletionsLeaveHedgeDelayAlone(t *testing.T) {
	r := &Router{
		cfg: RouterConfig{Hedge: true, HedgeMin: time.Millisecond}.withDefaults(),
		lat: make(map[string]*obs.Window),
	}
	for i := 0; i < 20; i++ {
		r.observeLatency("m", time.Now().Add(-10*time.Millisecond), true)
	}
	before := r.hedgeDelay("m")
	if before < 20*time.Millisecond || before > 40*time.Millisecond {
		t.Fatalf("hedge delay %s after 10ms round trips, want about HedgeFactor (2) times that", before)
	}
	for i := 0; i < 8; i++ {
		r.observeLatency("m", time.Now().Add(-time.Second), false) // hedged
		r.observeLatency("m", time.Now(), false)                   // cache hit
	}
	if after := r.hedgeDelay("m"); after != before {
		t.Fatalf("8 hedged completions and 8 cache hits moved the hedge delay from %s to %s", before, after)
	}
}

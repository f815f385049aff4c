package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/wire"
)

// Errors the router returns for a routed prediction; the HTTP layer
// maps them onto status codes.
var (
	// ErrOverloaded is returned when the router's bounded admission is
	// full (429).
	ErrOverloaded = errors.New("fleet: router at max inflight")
	// ErrUnknownModel is returned for a model no worker registered (404).
	ErrUnknownModel = errors.New("fleet: unknown model")
	// ErrNoWorker is returned when every replica hosting the model is
	// gone or already tried (503).
	ErrNoWorker = errors.New("fleet: no live worker for model")
	// ErrDeadlineExceeded is returned when the request's deadline passed
	// before any replica answered (504).
	ErrDeadlineExceeded = errors.New("fleet: deadline exceeded")
	// ErrBadRequest is returned (wrapped, with the detail) for a request
	// the router or a worker refused as malformed (400).
	ErrBadRequest = errors.New("fleet: bad request")
)

const (
	// maxAttempts bounds dispatches per request across hedges and
	// failovers.
	maxAttempts = 3
	// hedgeQuantile is the latency quantile the hedge deadline tracks.
	hedgeQuantile = 0.95
	// requestTimeout bounds one routed prediction end to end. A client
	// timeout_ms below it wins.
	requestTimeout = 30 * time.Second
)

// RouterConfig parameterizes NewRouter.
type RouterConfig struct {
	// Addr is the TCP listen address workers dial (e.g. ":9001").
	Addr string
	// ReplicaSet is how many distinct workers form one model's replica
	// set on the consistent-hash ring: the primary plus its hedge and
	// failover targets (default 2).
	ReplicaSet int
	// MaxInflight bounds concurrently admitted predictions; past it
	// requests are rejected with 429 (default 256).
	MaxInflight int
	// Hedge enables dispatching a second attempt to the next replica
	// once a request outlives the hedge deadline.
	Hedge bool
	// HedgeMin floors the hedge deadline (default 20ms).
	HedgeMin time.Duration
	// HedgeFactor scales the observed p95 latency into the hedge
	// deadline: hedge after max(HedgeMin, HedgeFactor*p95) (default 2).
	HedgeFactor float64
	// CacheBytes is the response-cache budget; 0 disables caching.
	CacheBytes int
	// HeartbeatEvery is the ping cadence per worker (default 500ms).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout declares a worker dead when no pong arrived for
	// this long (default 5s).
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
	// WrapConn, when non-nil, wraps every accepted connection; tests
	// use it to interpose fault injectors and targeted kills.
	WrapConn func(net.Conn) net.Conn
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ReplicaSet < 1 {
		c.ReplicaSet = 2
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 256
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 20 * time.Millisecond
	}
	if c.HedgeFactor <= 0 {
		c.HedgeFactor = 2
	}
	return c
}

// fworker is the router's handle on one registered worker connection.
type fworker struct {
	*wire.Peer
	member string // consistent-hash ring member name
	models map[string]bool
}

// modelEntry is the router's catalog record for one model name.
type modelEntry struct {
	kind     string
	classes  int
	imageLen int
	quantLo  float32
	quantHi  float32
	hosts    map[int]*fworker
	rr       uint64 // round-robin cursor over the replica set
}

// call is one client prediction in flight: attempts feed its done
// channel, the first one wins.
type call struct {
	done      chan callResult
	finished  atomic.Bool
	primaryID uint64       // first attempt's id, for hedge-win accounting
	tried     map[int]bool // worker ids dispatched to (guarded by Router.mu)
	attempts  int          // dispatches so far (guarded by Router.mu)
	model     string
	image     []float32
	budgetMS  uint32
}

// callResult is one attempt's outcome.
type callResult struct {
	scores    []float32
	batchSize int
	code      uint8 // error code, 0 on success
	msg       string
	workerID  int
	attemptID uint64
}

// attempt is one dispatch of a call to one worker.
type attempt struct {
	id      uint64
	c       *call
	w       *fworker
	isHedge bool
}

// Router accepts fleet workers, routes client predictions to them by
// consistent hash with hedging, failover, and response caching, and
// fronts the whole tier with the HTTP API (Handler). All methods are
// safe for concurrent use.
type Router struct {
	cfg   RouterConfig
	srv   *wire.Server
	cache *Cache

	inflight chan struct{}

	mu       sync.Mutex
	workers  map[int]*fworker
	catalog  map[string]*modelEntry
	ring     *Ring
	attempts map[uint64]*attempt
	nextID   uint64

	lat   map[string]*obs.Window
	latMu sync.Mutex

	start time.Time
}

// NewRouter starts listening for workers. Call Close when done.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	srv, err := wire.Listen(proto, wire.ServerConfig{
		Addr: cfg.Addr, HeartbeatEvery: cfg.HeartbeatEvery, HeartbeatTimeout: cfg.HeartbeatTimeout,
		Logf: cfg.Logf, WrapConn: cfg.WrapConn,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	r := &Router{
		cfg:      cfg,
		srv:      srv,
		cache:    NewCache(cfg.CacheBytes),
		inflight: make(chan struct{}, cfg.MaxInflight),
		workers:  make(map[int]*fworker),
		catalog:  make(map[string]*modelEntry),
		ring:     NewRing(),
		attempts: make(map[uint64]*attempt),
		lat:      make(map[string]*obs.Window),
		start:    time.Now(),
	}
	srv.Serve(wire.Handler{Joined: r.joined, Frame: r.frame, Dead: r.dead})
	return r, nil
}

// Addr returns the worker listener's address (useful with ":0").
func (r *Router) Addr() string { return r.srv.Addr() }

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Close stops the listener, dismisses every worker, and fails the
// attempts still in flight. It does not return until every connection
// goroutine (handshakes, readers, heartbeat monitors) has exited, so
// nothing touches the router — or its log sink — afterwards.
// Idempotent.
func (r *Router) Close() { r.srv.Close() }

// Workers returns the number of currently registered workers.
func (r *Router) Workers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.workers)
}

// AwaitWorkers blocks until at least min workers are registered or the
// timeout expires.
func (r *Router) AwaitWorkers(min int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if r.Workers() >= min {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers after %s", r.Workers(), min, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// joined completes a welcomed worker's handshake: it reads the model
// registration and admits the worker into routing.
func (r *Router) joined(p *wire.Peer) error {
	t, payload, err := p.Conn.Recv()
	if err != nil {
		return err
	}
	if t != frameRegister {
		return fmt.Errorf("expected register, got %s", proto.TypeName(t))
	}
	w := &fworker{Peer: p, member: fmt.Sprintf("w%d", p.ID), models: make(map[string]bool)}
	p.Data = w
	if err := r.register(w, payload); err != nil {
		return fmt.Errorf("bad registration: %w", err)
	}
	workersJoined.Inc()
	r.logf("worker %d registered %v (%d live)", p.ID, modelNames(w.models), r.Workers())
	return nil
}

func modelNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// register decodes a registration payload and installs the worker into
// the catalog and the ring. Conflicting model metadata (same name,
// different shape) is a registration error.
func (r *Router) register(w *fworker, payload []byte) error {
	d := wire.Dec{B: payload}
	n := int(d.U32())
	type reg struct {
		name, kind       string
		classes, imgLen  int
		quantLo, quantHi float32
	}
	// n comes off the wire: grow regs by append, never size it from n.
	var regs []reg
	for i := 0; i < n && !d.Failed(); i++ {
		regs = append(regs, reg{
			name: d.Str(), kind: d.Str(),
			classes: int(d.U32()), imgLen: int(d.U32()),
			quantLo: d.F32(), quantHi: d.F32(),
		})
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(regs) == 0 {
		return fmt.Errorf("fleet: worker registered zero models")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range regs {
		ent, ok := r.catalog[g.name]
		if !ok {
			ent = &modelEntry{kind: g.kind, classes: g.classes, imageLen: g.imgLen,
				quantLo: g.quantLo, quantHi: g.quantHi, hosts: make(map[int]*fworker)}
			r.catalog[g.name] = ent
		} else if ent.imageLen != g.imgLen || ent.classes != g.classes ||
			ent.quantLo != g.quantLo || ent.quantHi != g.quantHi {
			return fmt.Errorf("fleet: model %q registered with conflicting shape", g.name)
		}
		ent.hosts[w.ID] = w
		w.models[g.name] = true
	}
	r.workers[w.ID] = w
	r.ring.Add(w.member)
	workersLive.Set(float64(len(r.workers)))
	return nil
}

// frame routes one worker frame: results and errors complete their
// attempts. Anything else — or a malformed payload — is a protocol
// violation that kills the connection.
func (r *Router) frame(p *wire.Peer, t uint8, payload []byte) error {
	d := wire.Dec{B: payload}
	res := callResult{attemptID: d.U64(), workerID: p.ID}
	switch t {
	case frameResult:
		res.batchSize = int(d.U32())
		res.scores = d.F32s()
		if d.Err() != nil {
			return errors.New("malformed result frame")
		}
	case frameError:
		res.code = d.U8()
		res.msg = d.Str()
		if d.Err() != nil || res.code == 0 {
			return errors.New("malformed error frame")
		}
	default:
		return fmt.Errorf("unexpected %s frame", proto.TypeName(t))
	}
	r.complete(res)
	return nil
}

// dead removes a lost worker (the wire server reports each death
// exactly once) and fails its in-flight attempts over to the surviving
// replicas — the warm-standby failover path. Requests whose call is
// already finished are dropped; the rest are re-dispatched (or failed
// when no untried replica remains), so a killed worker costs latency,
// never a lost response.
func (r *Router) dead(p *wire.Peer, reason string) {
	w := p.Data.(*fworker)
	r.mu.Lock()
	delete(r.workers, w.ID)
	r.ring.Remove(w.member)
	for name := range w.models {
		if ent, ok := r.catalog[name]; ok {
			delete(ent.hosts, w.ID)
		}
	}
	workersLive.Set(float64(len(r.workers)))
	var orphans []*attempt
	for id, att := range r.attempts {
		if att.w == w {
			delete(r.attempts, id)
			orphans = append(orphans, att)
		}
	}
	r.mu.Unlock()

	for _, att := range orphans {
		if att.c.finished.Load() {
			continue
		}
		failovers.Inc()
		if err := r.dispatch(att.c, true); err != nil {
			r.deliver(att.c, callResult{code: errCodeInternal, msg: err.Error(), attemptID: att.id})
		}
	}
}

// complete routes one worker answer to its call. Late answers — the
// losing side of a hedge, or a result racing a failover re-dispatch —
// are counted and dropped, so a client never sees a duplicate.
func (r *Router) complete(res callResult) {
	r.mu.Lock()
	att, ok := r.attempts[res.attemptID]
	delete(r.attempts, res.attemptID)
	r.mu.Unlock()
	if !ok {
		duplicateResults.Inc()
		return
	}
	// Retryable worker errors fail over to an untried replica instead
	// of surfacing, as long as the attempt budget holds.
	if res.code == errCodeOverloaded || res.code == errCodeInternal {
		if !att.c.finished.Load() {
			if err := r.dispatch(att.c, false); err == nil {
				return
			}
		}
	}
	if att.isHedge && res.code == 0 {
		hedgeWins.Inc()
	}
	r.deliver(att.c, res)
}

// deliver finishes a call exactly once.
func (r *Router) deliver(c *call, res callResult) {
	if !c.finished.CompareAndSwap(false, true) {
		duplicateResults.Inc()
		return
	}
	c.done <- res
}

// dispatch sends one more attempt of c to the next untried worker in
// the model's replica set (rotated round-robin so load spreads across
// the set). asFailover marks re-dispatches after a worker death; both
// paths count against maxAttempts.
func (r *Router) dispatch(c *call, asFailover bool) error {
	r.mu.Lock()
	ent, ok := r.catalog[c.model]
	if !ok {
		r.mu.Unlock()
		return ErrUnknownModel
	}
	if c.attempts >= maxAttempts {
		r.mu.Unlock()
		return ErrNoWorker
	}
	set := r.ring.Ordered(c.model, r.cfg.ReplicaSet)
	// Rotate the preference list so consecutive requests for the same
	// model spread across its replica set instead of hammering the
	// primary; hedges and failovers continue down the same rotation.
	start := int(ent.rr % uint64(max(len(set), 1)))
	if c.attempts == 0 {
		ent.rr++
	}
	var w *fworker
	for i := 0; i < len(set); i++ {
		member := set[(start+i)%len(set)]
		cand := r.memberWorker(member)
		if cand == nil || cand.Dead() || !cand.models[c.model] || c.tried[cand.ID] {
			continue
		}
		w = cand
		break
	}
	if w == nil {
		// The ring's replica set is exhausted; fall back to any live
		// untried host of the model (the set may be smaller than the
		// host count).
		for _, cand := range ent.hosts {
			if !cand.Dead() && !c.tried[cand.ID] {
				w = cand
				break
			}
		}
	}
	if w == nil {
		r.mu.Unlock()
		return ErrNoWorker
	}
	c.tried[w.ID] = true
	c.attempts++
	r.nextID++
	att := &attempt{id: r.nextID, c: c, w: w, isHedge: c.attempts > 1 && !asFailover}
	if c.attempts == 1 {
		c.primaryID = att.id
	}
	r.attempts[att.id] = att
	r.mu.Unlock()

	var e wire.Enc
	e.U64(att.id)
	e.Str(c.model)
	e.U32(c.budgetMS)
	e.F32s(c.image)
	if err := w.Conn.Send(framePredict, e.B); err != nil {
		// The death path re-dispatches this attempt to a survivor.
		w.Kill(fmt.Sprintf("send predict: %v", err))
	}
	return nil
}

// memberWorker resolves a ring member name to its live worker. Caller
// holds r.mu.
func (r *Router) memberWorker(member string) *fworker {
	for _, w := range r.workers {
		if w.member == member {
			return w
		}
	}
	return nil
}

// PredictMeta reports how a routed prediction was served.
type PredictMeta struct {
	// Cached is true when the response came from the response cache.
	Cached bool
	// Hedged is true when a second attempt was dispatched.
	Hedged bool
	// Attempts is the number of dispatches (0 for a cache hit).
	Attempts int
	// WorkerID identifies the worker that answered (0 for a cache hit).
	WorkerID int
	// BatchSize is the micro-batch the answer rode in (0 for a cache
	// hit).
	BatchSize int
}

// ModelInfo describes one registered model for the HTTP catalog.
type ModelInfo struct {
	// Name is the model's routing key.
	Name string `json:"name"`
	// Kind is the architecture the hosting workers declared.
	Kind string `json:"kind"`
	// Classes is the classifier width.
	Classes int `json:"classes"`
	// ImageLen is the flattened input size clients must send.
	ImageLen int `json:"image_len"`
	// Hosts is the number of live workers hosting the model.
	Hosts int `json:"hosts"`
}

// Models lists the registered catalog, sorted by name.
func (r *Router) Models() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ModelInfo, 0, len(r.catalog))
	for name, ent := range r.catalog {
		out = append(out, ModelInfo{Name: name, Kind: ent.kind, Classes: ent.classes,
			ImageLen: ent.imageLen, Hosts: len(ent.hosts)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Predict routes one prediction: cache lookup, bounded admission,
// consistent-hash dispatch, hedging, failover, and cache fill. timeout
// zero means the router default.
func (r *Router) Predict(ctx context.Context, model string, image []float32, timeout time.Duration) ([]float32, PredictMeta, error) {
	var meta PredictMeta
	r.mu.Lock()
	ent, ok := r.catalog[model]
	if !ok {
		r.mu.Unlock()
		requests("unknown_model").Inc()
		return nil, meta, ErrUnknownModel
	}
	imgLen, qLo, qHi := ent.imageLen, ent.quantLo, ent.quantHi
	r.mu.Unlock()
	if len(image) != imgLen {
		requests("bad_request").Inc()
		return nil, meta, fmt.Errorf("%w: image has %d values, model %q wants %d", ErrBadRequest, len(image), model, imgLen)
	}
	if timeout <= 0 || timeout > requestTimeout {
		timeout = requestTimeout
	}
	start := time.Now()

	var key string
	if r.cache != nil {
		q := QuantizeImage(nil, image, qLo, qHi)
		key = Key(model, q)
		if scores := r.cache.Get(key); scores != nil {
			cacheHits.Inc()
			requests("cached").Inc()
			meta.Cached = true
			r.observeLatency(model, start, false)
			return scores, meta, nil
		}
		cacheMisses.Inc()
		// Canonicalize: serve the grid point the key names, so every
		// request sharing this key computes — and caches — identical
		// bytes.
		image = DequantizeImage(nil, q, qLo, qHi)
	}

	select {
	case r.inflight <- struct{}{}:
	default:
		requests("rejected").Inc()
		return nil, meta, ErrOverloaded
	}
	routerInflight.Set(float64(len(r.inflight)))
	defer func() {
		<-r.inflight
		routerInflight.Set(float64(len(r.inflight)))
	}()

	c := &call{
		done:     make(chan callResult, 1),
		tried:    make(map[int]bool),
		model:    model,
		image:    image,
		budgetMS: uint32(timeout / time.Millisecond),
	}
	if err := r.dispatch(c, false); err != nil {
		requests("no_worker").Inc()
		return nil, meta, err
	}

	overall := time.NewTimer(timeout)
	defer overall.Stop()
	var hedgeCh <-chan time.Time
	if r.cfg.Hedge {
		ht := time.NewTimer(r.hedgeDelay(model))
		defer ht.Stop()
		hedgeCh = ht.C
	}
	for {
		select {
		case res := <-c.done:
			r.mu.Lock()
			meta.Attempts = c.attempts
			r.mu.Unlock()
			meta.WorkerID = res.workerID
			meta.BatchSize = res.batchSize
			if res.code != 0 {
				return nil, meta, r.failCall(c, res)
			}
			requests("completed").Inc()
			r.observeLatency(model, start, !meta.Hedged)
			if r.cache != nil {
				r.cache.Put(key, res.scores)
			}
			return res.scores, meta, nil
		case <-hedgeCh:
			hedgeCh = nil
			if c.finished.Load() {
				continue
			}
			if err := r.dispatch(c, false); err == nil {
				hedges.Inc()
				meta.Hedged = true
			}
		case <-ctx.Done():
			r.abandon(c)
			requests("canceled").Inc()
			return nil, meta, ctx.Err()
		case <-overall.C:
			r.abandon(c)
			requests("expired").Inc()
			return nil, meta, ErrDeadlineExceeded
		}
	}
}

// failCall maps a terminal worker error onto the router's error set.
func (r *Router) failCall(c *call, res callResult) error {
	switch res.code {
	case errCodeExpired:
		requests("expired").Inc()
		return ErrDeadlineExceeded
	case errCodeOverloaded:
		requests("rejected").Inc()
		return ErrOverloaded
	case errCodeBadRequest:
		requests("failed").Inc()
		return fmt.Errorf("%w: worker %d: %s", ErrBadRequest, res.workerID, res.msg)
	default:
		requests("failed").Inc()
		return fmt.Errorf("fleet: worker %d: %s", res.workerID, res.msg)
	}
}

// abandon marks a call finished so late results are dropped, and
// forgets its attempts.
func (r *Router) abandon(c *call) {
	c.finished.Store(true)
	r.mu.Lock()
	for id, att := range r.attempts {
		if att.c == c {
			delete(r.attempts, id)
		}
	}
	r.mu.Unlock()
}

// hedgeWindow is the number of recent request latencies per model that
// feed the hedge deadline.
const hedgeWindow = 512

// observeLatency records one answered request. Only a plain one —
// neither a cache hit nor hedged — enters the model's hedge window: the
// window estimates how long an un-hedged worker round trip takes, and a
// hedged completion, which is at least one hedge deadline long, would
// raise the next deadline in turn.
func (r *Router) observeLatency(model string, start time.Time, plain bool) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	routerLatencyMs.Observe(ms)
	if !plain {
		return
	}
	r.latMu.Lock()
	w, ok := r.lat[model]
	if !ok {
		w = obs.NewWindow(hedgeWindow)
		r.lat[model] = w
	}
	w.Observe(ms)
	r.latMu.Unlock()
}

// hedgeDelay computes the hedge deadline for model from its recent
// latency quantile: max(HedgeMin, HedgeFactor * q). With no history it
// falls back to HedgeMin — eager hedging while the window fills is
// harmless because the hedge only fires for requests that are already
// slow.
func (r *Router) hedgeDelay(model string) time.Duration {
	r.latMu.Lock()
	var q float64
	var ok bool
	if w, found := r.lat[model]; found {
		q, ok = w.Quantile(hedgeQuantile)
	}
	r.latMu.Unlock()
	d := r.cfg.HedgeMin
	if ok {
		if hd := time.Duration(r.cfg.HedgeFactor * q * float64(time.Millisecond)); hd > d {
			d = hd
		}
	}
	return d
}

// CacheStats reports the response cache's occupancy.
func (r *Router) CacheStats() (entries, bytes int) {
	return r.cache.Len(), r.cache.Bytes()
}

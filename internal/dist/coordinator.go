package dist

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
	"github.com/appmult/retrain/internal/wire"
)

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// HeartbeatEvery is the ping cadence per worker (default 500ms).
	HeartbeatEvery time.Duration
	// HeartbeatTimeout declares a worker dead when no pong arrived for
	// this long (default 5s).
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
	// WrapConn, when non-nil, wraps every accepted connection; tests
	// use it to interpose faults.NetFaultModel injectors or to grab
	// connections for forced kills.
	WrapConn func(net.Conn) net.Conn
}

// WorkerTimeout bounds every wait of the coordinator on its workers.
// Workers still holding a run of slices when a step's gather phase has
// lasted this long are declared dead and their runs reassigned. A step
// left with zero live workers waits this long for a join before
// panicking (the guarded train loop then counts a skipped step and
// retries on the next batch). Callers waiting for the first workers
// use it too.
const WorkerTimeout = 2 * time.Minute

// evKind classifies a worker event delivered to the training
// goroutine.
type evKind int

const (
	evResult  evKind = iota // a SliceResult frame arrived
	evAborted               // a SliceAborted frame arrived
	evDead                  // the worker was declared dead
)

// event is one worker-originated occurrence. Readers and heartbeat
// monitors produce events; only the training goroutine consumes them.
type event struct {
	w       *remote
	kind    evKind
	step    uint64
	attempt uint32
	slice   int // the run's first slice
	count   int // a result's slot count
	fatal   bool
	reason  string
	payload []byte // a result's payload, on a buffer of Coordinator.bufs; decoded lazily
}

// run is the slices [lo, hi) of an attempt's plan: the work of one
// slice frame.
type run struct{ lo, hi int }

func (r run) empty() bool { return r.hi == r.lo }

// remote is the coordinator's handle on one worker connection.
type remote struct {
	*wire.Peer
	// outstanding is the run currently assigned to this worker (empty
	// when idle); a worker holds at most one. Only the training
	// goroutine touches it.
	outstanding run
}

// Coordinator owns the primary model and drives remote workers through
// training steps. It implements train.Stepper, so train.Run uses it
// exactly like an in-process ShardedStep. All Stepper methods (and
// AwaitWorkers/Close) must be called from one goroutine — the training
// goroutine — which is also the only place workers are admitted, so
// model state is never snapshotted concurrently with an optimizer
// step.
type Coordinator struct {
	cfg CoordinatorConfig

	model  *nn.Sequential
	rep    *train.Replica // the primary, in the engine's packed layout
	groups []*nn.BNSyncGroup

	srv    *wire.Server
	joinCh chan *remote
	events chan event

	// bnWG joins the sync-BN handler goroutines the frame handler
	// spawns; the wire server joins every connection goroutine itself.
	bnWG sync.WaitGroup

	// Training-goroutine-owned scheduling state: the admitted workers in
	// ascending id order (the dispatch order), the step counter and the
	// attempt's queue of unassigned runs.
	live   []*remote
	stepID uint64
	queue  []run

	// mu guards the sync-BN handler coordination: the current attempt
	// tag, the in-flight handler count, and the moment stash — per
	// group, the attempt's folded phase-1 and phase-2 vectors, committed
	// to the primary's running statistics (applyBNStash) only when the
	// attempt completes, so aborted attempts leave the primary pristine.
	mu       sync.Mutex
	bnCond   *sync.Cond
	attempt  uint32
	bnActive int
	stash    [][2][]float64
	closed   bool

	// Per-step state, reused: the slice set the workers' results land
	// in, the packed parameter values Broadcast sends, and the payload
	// encoder of the training goroutine's frames (slice, observe,
	// params; Conn.Send copies a payload before it returns). The BN
	// handlers run on their own goroutines and keep their own encoders.
	set      train.Slices
	paramBuf []float32
	enc      wire.Enc

	// bufs recycles the payloads the connection readers hand to the
	// training goroutine (results) and to the BN handlers (reductions).
	bufs bufPool
}

// NewCoordinator starts listening and accepting workers for the given
// job. model becomes the primary replica: gradients reduce into it,
// the caller's optimizer steps it, checkpoints and evaluation read it.
// The spec must describe the same model (workers rebuild from the spec
// alone). Call Close when training finishes.
func NewCoordinator(model *nn.Sequential, spec Spec, cfg CoordinatorConfig) (*Coordinator, error) {
	srv, err := wire.Listen(proto, wire.ServerConfig{
		Addr: cfg.Addr, HeartbeatEvery: cfg.HeartbeatEvery, HeartbeatTimeout: cfg.HeartbeatTimeout,
		Logf: cfg.Logf, WrapConn: cfg.WrapConn,
	})
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	c := &Coordinator{
		cfg:    cfg,
		model:  model,
		rep:    train.NewReplica(model),
		srv:    srv,
		joinCh: make(chan *remote, 64),
		events: make(chan event, 4096),
		bufs:   newBufPool(),
	}
	c.bnCond = sync.NewCond(&c.mu)
	for _, bn := range c.rep.BatchNorms() {
		c.groups = append(c.groups, nn.NewBNSyncGroup(bn.C))
	}
	c.stash = make([][2][]float64, len(c.groups))
	var welcome wire.Enc
	spec.encode(&welcome)
	srv.Serve(wire.Handler{Welcome: welcome.B, Joined: c.joined, Frame: c.frame, Dead: c.dead})
	return c, nil
}

// Addr returns the listener's address (useful with ":0").
func (c *Coordinator) Addr() string { return c.srv.Addr() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// joined parks a handshaked worker on joinCh for the training goroutine
// to admit at a safe point in the training loop. The wire server starts
// the worker's reader and heartbeat monitor as soon as this returns, so
// the worker sees liveness even while admission waits.
func (c *Coordinator) joined(p *wire.Peer) error {
	w := &remote{Peer: p}
	p.Data = w
	select {
	case c.joinCh <- w:
		return nil
	case <-c.srv.Done():
		return errors.New("coordinator closed")
	}
}

// frame routes one worker frame: sync-BN requests get their own handler
// goroutine (they block in barriers), and step results become events
// for the training goroutine. Anything else is a protocol violation.
func (c *Coordinator) frame(p *wire.Peer, t uint8, payload []byte) error {
	w := p.Data.(*remote)
	switch t {
	case frameBNReduce:
		cp := c.bufs.fill(payload)
		c.bnWG.Add(1) // Close waits on bnWG only after the server joined this reader
		go func() {
			defer c.bnWG.Done()
			c.handleBN(w, cp)
		}()
	case frameSliceResult, frameSliceAborted:
		ev, err := c.workEvent(w, t, payload)
		if err != nil {
			return err
		}
		c.pushEvent(ev)
	default:
		return fmt.Errorf("unexpected %s frame", proto.TypeName(t))
	}
	return nil
}

// workEvent decodes the head of a slice_result or slice_aborted frame
// into its event. A result's slots stay undecoded: its payload goes
// along on a buffer of c.bufs.
func (c *Coordinator) workEvent(w *remote, t uint8, payload []byte) (event, error) {
	d := wire.Dec{B: payload}
	ev := event{w: w, step: d.U64(), attempt: d.U32(), slice: int(d.U32())}
	if t == frameSliceResult {
		ev.kind = evResult
		ev.count = int(d.U32())
	} else {
		ev.kind = evAborted
		ev.fatal = d.U8() != 0
		ev.reason = d.Str()
	}
	if d.Failed() {
		return event{}, errors.New("malformed result frame")
	}
	if ev.kind == evResult {
		ev.payload = c.bufs.fill(payload)
	}
	return ev, nil
}

// dead queues a worker's death (reported exactly once by the wire
// server) for the training goroutine's bookkeeping.
func (c *Coordinator) dead(p *wire.Peer, reason string) {
	c.pushEvent(event{w: p.Data.(*remote), kind: evDead, reason: reason})
}

func (c *Coordinator) pushEvent(ev event) {
	select {
	case c.events <- ev:
	case <-c.srv.Done():
	}
}

// admit sends a full state sync to a handshaked worker and adds it to
// the scheduling set. Only the training goroutine calls it, at points
// where the primary's state is stable.
func (c *Coordinator) admit(w *remote) {
	if w.Dead() {
		return
	}
	if err := c.sendState(w); err != nil {
		w.Conn.Close() // its reader will report the death
		return
	}
	i, _ := slices.BinarySearchFunc(c.live, w.ID, func(v *remote, id int) int { return cmp.Compare(v.ID, id) })
	c.live = slices.Insert(c.live, i, w)
	workersJoined.Inc()
	workersLive.Set(float64(len(c.live)))
	c.logf("worker %d admitted (%d live)", w.ID, len(c.live))
}

// removeWorker drops a dead worker from scheduling and requeues its
// outstanding run whole, reporting how many slices were reassigned.
func (c *Coordinator) removeWorker(w *remote) int {
	i := slices.Index(c.live, w)
	if i < 0 {
		return 0
	}
	c.live = slices.Delete(c.live, i, i+1)
	workersLive.Set(float64(len(c.live)))
	r := w.outstanding
	w.outstanding = run{}
	if r.empty() {
		return 0
	}
	c.queue = append(c.queue, r)
	n := r.hi - r.lo
	sliceReassignments.Add(float64(n))
	c.logf("worker %d: run of %d slice(s) reassigned to survivors", w.ID, n)
	return n
}

// sendState transfers the primary's full state: the NNCKPv1 params
// blob plus every layer's non-parameter state vector (observers,
// BatchNorm running statistics).
func (c *Coordinator) sendState(w *remote) error {
	var blob bytes.Buffer
	if err := nn.SaveParams(&blob, c.model); err != nil {
		return err
	}
	state := nn.CollectState(c.model)
	var e wire.Enc
	e.Bytes(blob.Bytes())
	e.U32(uint32(len(state)))
	for _, v := range state {
		e.F32s(v)
	}
	stateSyncs.Inc()
	return w.Conn.Send(frameState, e.B)
}

// drainIdle processes queued events and joins while no step is active.
func (c *Coordinator) drainIdle() {
	for {
		select {
		case ev := <-c.events:
			c.idleEvent(ev)
		case w := <-c.joinCh:
			c.admit(w)
		default:
			return
		}
	}
}

// idleEvent handles an event that arrives outside an attempt: a death
// is booked, anything else is stale.
func (c *Coordinator) idleEvent(ev event) {
	if ev.kind == evDead {
		c.removeWorker(ev.w)
	}
	c.bufs.put(ev.payload)
}

// AwaitWorkers blocks (on the training goroutine) until at least min
// workers are admitted or the timeout expires.
func (c *Coordinator) AwaitWorkers(min int, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for expired := false; ; {
		c.drainIdle()
		if len(c.live) >= min {
			return nil
		}
		if expired {
			return fmt.Errorf("dist: %d of %d workers after %s", len(c.live), min, timeout)
		}
		select {
		case w := <-c.joinCh:
			c.admit(w)
		case ev := <-c.events:
			c.idleEvent(ev)
		case <-timer.C:
			expired = true
		}
	}
}

// Step implements train.Stepper: one distributed training step over
// minibatch (x, y), returning the full-batch mean loss with the
// reduced gradients left on the primary model. The step runs as
// attempts until one gathers every slice.
func (c *Coordinator) Step(x *tensor.Tensor, y []int) float64 {
	n := x.Shape[0]
	if n != len(y) {
		panic(fmt.Sprintf("dist: %d rows, %d labels", n, len(y)))
	}
	c.stepID++
	c.drainIdle()
	start := time.Now()
	for !c.runAttempt(x, y, n) {
		stepRetries.Inc()
		c.logf("step %d attempt aborted; retrying with %d workers", c.stepID, len(c.live))
	}
	c.applyBNStash()
	loss := c.finishStep()
	stepGatherMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	stepsTotal.Inc()
	return loss
}

// runAttempt runs one attempt of the step: it plans the slices, cuts
// them into runs, queues the runs and gathers their results, reporting
// whether it gathered every slice. A BN-free model (parts = 0) has the
// fixed 8-row slice plan, cut into one near-even contiguous run per
// live worker (the split ShardedStep gives its replicas), and which
// worker computes which run — and any reassignment after a death —
// cannot affect the result bits: every slot is deterministic given the
// (identical) replica state, and the reduction tree is fixed by the
// plan alone. A sync-BN model has one slice per admitted worker, each
// a run of one and a participant of every BN barrier; a barrier needs
// an exact participant set, so losing an outstanding run ends the
// attempt and the step retries with the survivors. A worker's panic
// ends the step with a panic. An attempt that does not complete bumps
// the attempt tag and aborts every BN group, unwinding the surviving
// participants.
func (c *Coordinator) runAttempt(x *tensor.Tensor, y []int, n int) (ok bool) {
	if len(c.live) == 0 {
		c.awaitAnyWorker()
	}
	parts := 0
	if len(c.groups) > 0 {
		parts = len(c.live)
	}
	bounds := c.set.Plan(c.rep, n, parts)
	S := len(bounds) - 1
	if parts > 0 {
		parts = S // fewer than the workers when the batch has fewer rows
	}
	att := c.beginAttempt(S)
	defer func() {
		if !ok {
			c.abortAttempt()
		}
	}()
	// Ascending runs to ascending worker ids: a sync-BN attempt (S is
	// at most the live count) gives each worker one slice, its
	// participant index.
	R := min(len(c.live), S)
	c.queue = c.queue[:0]
	for r := R - 1; r >= 0; r-- { // popped from the tail → ascending dispatch
		c.queue = append(c.queue, run{r * S / R, (r + 1) * S / R})
	}
	for _, w := range c.live {
		w.outstanding = run{} // a previous attempt's assignment
	}
	c.dispatch(x, y, n, bounds, parts)
	// One timer per attempt, re-armed when the deadline moves, never a
	// time.After per pass: under the go 1.22 timer semantics this module
	// builds with, an unfired time.After timer stays on the heap until
	// it fires, WorkerTimeout later.
	timer := time.NewTimer(WorkerTimeout)
	defer timer.Stop()
	for got := 0; got < S; {
		select {
		case ev := <-c.events:
			if ev.kind != evDead && (ev.step != c.stepID || ev.attempt != att) {
				c.bufs.put(ev.payload)
				continue // stale
			}
			switch ev.kind {
			case evResult:
				r, ok := c.takeResult(ev)
				if !ok {
					continue
				}
				got += r.hi - r.lo
				c.assignNext(ev.w, x, y, n, bounds, parts)
			case evAborted:
				if ev.fatal {
					panic(fmt.Errorf("dist: worker %d slice %d panic: %s", ev.w.ID, ev.slice, ev.reason))
				}
				return false
			case evDead:
				if c.removeWorker(ev.w) > 0 && parts > 0 {
					return false
				}
				if len(c.live) == 0 {
					c.awaitAnyWorker()
					if !timer.Stop() {
						select { // drain a tick that fired while we waited
						case <-timer.C:
						default:
						}
					}
					timer.Reset(WorkerTimeout)
				}
				c.dispatch(x, y, n, bounds, parts)
			}
		case w := <-c.joinCh:
			// Admission mid-attempt is safe (the primary is stable); a
			// sync-BN attempt has nothing queued for the newcomer, which
			// participates from the next attempt or step.
			c.admit(w)
			c.assignNext(w, x, y, n, bounds, parts)
		case <-timer.C:
			// Laggards holding runs past the step deadline are dead as
			// far as this run is concerned: kill their connections and
			// let the resulting deaths do the rest.
			for _, w := range c.live {
				if !w.outstanding.empty() {
					w.Kill("step deadline exceeded")
				}
			}
			timer.Reset(WorkerTimeout)
		}
	}
	return true
}

// beginAttempt starts a new attempt tag, waits out the previous
// attempt's BN handlers and configures every BN group for S
// participants.
func (c *Coordinator) beginAttempt(S int) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempt++
	for c.bnActive > 0 { // stragglers from the previous attempt
		c.bnCond.Wait()
	}
	for gi, g := range c.groups {
		g.Configure(S)
		c.stash[gi][0] = c.stash[gi][0][:0]
		c.stash[gi][1] = c.stash[gi][1][:0]
	}
	return c.attempt
}

// abortAttempt invalidates the current attempt tag and poisons every
// BN barrier so blocked participants unwind instead of waiting for a
// dead sibling.
func (c *Coordinator) abortAttempt() {
	c.mu.Lock()
	c.attempt++
	c.mu.Unlock()
	for _, g := range c.groups {
		g.Abort()
	}
}

// awaitAnyWorker blocks until at least one worker is admitted,
// panicking after WorkerTimeout (the guarded loop turns that into a
// counted skip, and the run resumes when a worker appears).
func (c *Coordinator) awaitAnyWorker() {
	c.logf("no live workers; waiting up to %s for a join", WorkerTimeout)
	if c.AwaitWorkers(1, WorkerTimeout) != nil {
		panic(fmt.Errorf("dist: no live workers after %s", WorkerTimeout))
	}
}

// dispatch hands queued runs to every idle worker.
func (c *Coordinator) dispatch(x *tensor.Tensor, y []int, n int, bounds []int, parts int) {
	for _, w := range c.live {
		if w.outstanding.empty() {
			c.assignNext(w, x, y, n, bounds, parts)
		}
	}
}

// assignNext pops one run off the queue and sends it to w, if w is
// admitted. An admitted worker that has died keeps the run until its
// death event requeues it. With parts > 0 the run is one slice, which
// participates in sync-BN as participant slice-index of parts.
func (c *Coordinator) assignNext(w *remote, x *tensor.Tensor, y []int, n int, bounds []int, parts int) {
	if len(c.queue) == 0 || !slices.Contains(c.live, w) {
		return
	}
	r := c.queue[len(c.queue)-1]
	c.queue = c.queue[:len(c.queue)-1]
	w.outstanding = r
	if err := c.sendRun(w, r, x, y, n, bounds, parts); err != nil {
		// The death event will requeue it from w.outstanding.
		w.Kill(fmt.Sprintf("send slice: %v", err))
	}
}

// sendRun ships the run r (rows bounds[r.lo]..bounds[r.hi]) with its
// labels and input rows as one slice frame.
func (c *Coordinator) sendRun(w *remote, r run, x *tensor.Tensor, y []int, n int, bounds []int, parts int) error {
	lo, hi := bounds[r.lo], bounds[r.hi]
	chw := x.Numel() / n
	e := c.resetEnc()
	e.U64(c.stepID)
	e.U32(c.curAttempt())
	e.U32(uint32(r.lo))
	e.U32(uint32(r.hi - r.lo))
	e.U32(uint32(n))
	e.U32(uint32(parts))
	e.U32(uint32(hi - lo))
	for _, lbl := range y[lo:hi] {
		e.U32(uint32(lbl))
	}
	e.F32s(x.Data[lo*chw : hi*chw])
	return w.Conn.Send(frameSlice, e.B)
}

// resetEnc empties the training goroutine's payload encoder for the
// next frame.
func (c *Coordinator) resetEnc() *wire.Enc {
	c.enc.B = c.enc.B[:0]
	return &c.enc
}

func (c *Coordinator) curAttempt() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempt
}

// takeResult records a current attempt's slice_result and puts its
// payload back, reporting the run it completed. A result for a run its
// worker no longer holds (requeued at the worker's death) is dropped;
// one that does not decode into the run it holds kills the worker,
// whose death requeues the run.
func (c *Coordinator) takeResult(ev event) (run, bool) {
	defer c.bufs.put(ev.payload)
	r := ev.w.outstanding
	if r.empty() || ev.slice != r.lo {
		return run{}, false
	}
	if err := c.recordResult(ev, r); err != nil {
		ev.w.Kill(fmt.Sprintf("slice result: %v", err))
		return run{}, false
	}
	ev.w.outstanding = run{}
	return r, true
}

// recordResult decodes a slice_result payload for the run r into the
// run's slots: it must carry exactly r's slot count, and every slot the
// model's layout.
func (c *Coordinator) recordResult(ev event, r run) error {
	if ev.count != r.hi-r.lo {
		return fmt.Errorf("carries %d slices, the run has %d", ev.count, r.hi-r.lo)
	}
	d := wire.Dec{B: ev.payload}
	d.Raw(8 + 4 + 4 + 4) // step, attempt, slice, count: decoded into ev
	for s := r.lo; s < r.hi && !d.Failed(); s++ {
		loss, grads, lo, hi, seen := c.set.Slot(s)
		*loss = d.F64()
		if err := decodeRanges(&d, lo, hi, seen); err != nil {
			return err
		}
		d.F32sInto(grads)
	}
	return d.Err()
}

// finishStep folds the gathered slices through the engine, exactly as
// ShardedStep does, folds the merged observer ranges into the primary
// and sends them to the workers to fold into theirs.
func (c *Coordinator) finishStep() float64 {
	loss := c.set.Fold(c.rep)
	c.rep.Observe(&c.set)
	_, _, lo, hi, seen := c.set.Slot(0)
	e := c.resetEnc()
	e.U64(c.stepID)
	encodeRanges(e, lo, hi, seen)
	for _, w := range c.live {
		if err := w.Conn.Send(frameObserve, e.B); err != nil {
			w.Kill(fmt.Sprintf("send observe: %v", err))
		}
	}
	return loss
}

// handleBN serves one sync-BN reduction request on its own goroutine
// (it blocks in the group barrier on behalf of the remote
// participant). Stale requests — a previous attempt's stragglers — are
// answered with an abort so the worker unwinds. The first fold of
// phase 1 and of phase 2 is stashed for applyBNStash (every
// participant's fold is identical).
func (c *Coordinator) handleBN(w *remote, payload []byte) {
	d := wire.Dec{B: payload}
	att, group, phase, part := d.U32(), int(d.U32()), d.U8(), int(d.U32())
	v, err := d.F64s(), d.Err()
	c.bufs.put(payload)
	if err != nil || group < 0 || group >= len(c.groups) || phase < 1 || phase > 3 ||
		len(v) != bnWidth(phase, c.groups[group].Channels()) {
		w.Kill("malformed BN frame")
		return
	}
	c.mu.Lock()
	if c.closed || att != c.attempt {
		c.mu.Unlock()
		c.sendBN(w, frameBNAbort, att, group, phase, nil)
		return
	}
	c.bnActive++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.bnActive--
		c.bnCond.Broadcast()
		c.mu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			// The barrier was poisoned (attempt aborted) or the request
			// was inconsistent; either way the worker must unwind.
			c.sendBN(w, frameBNAbort, att, group, phase, nil)
		}
	}()
	start := time.Now()
	out := c.groups[group].Reduce(part, v)
	bnReduceMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if phase < 3 {
		c.mu.Lock()
		if st := &c.stash[group][phase-1]; att == c.attempt && len(*st) == 0 {
			*st = append(*st, out...)
		}
		c.mu.Unlock()
	}
	if err := c.sendBN(w, frameBNResult, att, group, phase, out); err != nil {
		w.Kill(fmt.Sprintf("send BN result: %v", err))
	}
}

// bnWidth is the length of a phase's packed vector for c channels (see
// nn.BNSyncer): the sums and the count, the squares, Σdy and Σdy·x̂.
func bnWidth(phase uint8, c int) int {
	return [4]int{0, c + 1, c, 2 * c}[phase]
}

// sendBN sends a bn_result (v folded) or a bn_abort (v nil) answering
// one bn_reduce; an abort is best effort, the conn may be gone.
func (c *Coordinator) sendBN(w *remote, t uint8, att uint32, group int, phase uint8, v []float64) error {
	var e wire.Enc
	e.U32(att)
	e.U32(uint32(group))
	e.U8(phase)
	if t == frameBNResult {
		e.F64s(v)
	}
	return w.Conn.Send(t, e.B)
}

// applyBNStash commits the folded moments to the primary's BatchNorm
// running statistics — the update every worker's forward applied — so
// the primary's state matches what an in-process replica would hold.
func (c *Coordinator) applyBNStash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for gi, bn := range c.rep.BatchNorms() {
		st := c.stash[gi]
		if len(st[0]) == 0 || len(st[1]) == 0 {
			panic(fmt.Sprintf("dist: sync-BN stash incomplete for group %d", gi))
		}
		bn.UpdateRunning(st[0], st[1])
	}
}

// Broadcast implements train.Stepper: pushes the primary's
// post-optimizer parameter values to every worker.
func (c *Coordinator) Broadcast() {
	c.drainIdle()
	c.paramBuf = c.rep.PackValues(c.paramBuf)
	e := c.resetEnc()
	e.U64(c.stepID)
	e.F32s(c.paramBuf)
	for _, w := range c.live {
		if err := w.Conn.Send(frameParams, e.B); err != nil {
			w.Kill(fmt.Sprintf("send params: %v", err))
		}
	}
}

// SyncReplicas implements train.Stepper: full state re-sync after a
// rollback or checkpoint resume.
func (c *Coordinator) SyncReplicas() {
	c.drainIdle()
	for _, w := range c.live {
		if err := c.sendState(w); err != nil {
			w.Kill(fmt.Sprintf("send state: %v", err))
		}
	}
}

// Close dismisses the workers (Bye), stops the listener and monitors,
// and returns the primary model to single-process semantics. It does
// not return until every connection goroutine (handshakes, readers,
// heartbeat monitors, BN handlers) has exited, so nothing touches the
// coordinator — or its log sink — after Close. Safe to call once
// training is done; idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	// Poison the BN barriers so any handler still parked on behalf of a
	// remote participant unwinds instead of blocking the join below.
	for _, g := range c.groups {
		g.Abort()
	}
	c.srv.Close()
	c.bnWG.Wait()
	c.rep.Detach()
	workersLive.Set(0)
}

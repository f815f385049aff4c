package dist

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
	"github.com/appmult/retrain/internal/wire"
)

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's TCP address.
	Coordinator string
	// Dial is the backoff policy for failed dials and reconnects; the
	// worker redials forever (a crashed coordinator restarting from a
	// checkpoint picks it back up).
	Dial wire.Backoff
	// HeartbeatTimeout is the read-idle limit: the coordinator pings
	// well inside it, so a read stalled this long means the connection
	// is dead (default 15s).
	HeartbeatTimeout time.Duration
	// Seed randomizes backoff jitter.
	Seed int64
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
	// WrapConn, when non-nil, wraps every dialed connection; tests use
	// it to interpose fault injectors.
	WrapConn func(net.Conn) net.Conn
}

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RunWorker joins the coordinator and computes runs of gradient slices
// until dismissed (Bye → nil return) or the context is cancelled. A
// failed dial, or connection loss at any other point — including
// mid-step — re-enters the dial loop with exponential backoff; the
// coordinator re-syncs full state on readmission, so a reconnect is
// always safe.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	return wire.RunClient(ctx, proto, wire.ClientConfig{
		Addr: cfg.Coordinator, Dial: cfg.Dial, HeartbeatTimeout: cfg.HeartbeatTimeout,
		Seed: cfg.Seed, Logf: cfg.Logf, WrapConn: cfg.WrapConn,
	}, func(ctx context.Context, fc *wire.Conn, id int, welcome *wire.Dec) error {
		return serveWorker(ctx, fc, id, welcome, cfg)
	})
}

// wframe is one routed frame (or the reader's terminal error). p is a
// buffer of the session's bufs, put back by whoever decodes it.
type wframe struct {
	t   uint8
	p   []byte
	err error
}

// workerSession is one connection's state: the replica rebuilt from
// the coordinator's spec, its slice set, and the frame routing
// channels.
type workerSession struct {
	cfg WorkerConfig
	fc  *wire.Conn
	id  int

	model   *nn.Sequential
	rep     *train.Replica
	set     train.Slices // the run being computed, then the merged ranges in slot 0
	proxies []*bnProxy
	hw      int

	stateReady bool
	attempt    uint32

	workCh     chan wframe
	bnCh       chan wframe
	bufs       bufPool
	readerDead chan struct{}
	stop       chan struct{}

	x      *tensor.Tensor
	labels []int
	values []float32 // packed parameter values of a params frame
	enc    wire.Enc  // the slice reply's payload, reused (Send copies it)
}

// serveWorker is one connection's session body: rebuild the replica
// from the welcome's spec, then apply state and compute runs until
// the stream ends (wire.ErrDismissed when the coordinator said Bye).
func serveWorker(ctx context.Context, fc *wire.Conn, id int, welcome *wire.Dec, cfg WorkerConfig) error {
	spec := decodeSpec(welcome)
	if err := welcome.Err(); err != nil {
		return err
	}
	s := &workerSession{
		cfg:        cfg,
		fc:         fc,
		id:         id,
		workCh:     make(chan wframe, 128),
		bnCh:       make(chan wframe, 8),
		bufs:       newBufPool(),
		readerDead: make(chan struct{}),
		stop:       make(chan struct{}),
	}
	defer close(s.stop)
	if err := s.buildModel(spec); err != nil {
		return err
	}
	cfg.logf("worker %d: joined %s (model %s, %d params)", id, cfg.Coordinator, spec.Model, len(s.values))
	go s.readLoop()

	for {
		var f wframe
		select {
		case f = <-s.workCh:
		case <-ctx.Done():
			return ctx.Err()
		}
		if f.err != nil {
			return f.err
		}
		switch f.t {
		case frameState:
			if err := s.applyState(f.p); err != nil {
				return err
			}
		case frameSlice:
			if !s.stateReady {
				return fmt.Errorf("dist: slice before state sync")
			}
			if err := s.handleSlice(f.p); err != nil {
				return err
			}
		case frameObserve:
			if err := s.applyObserve(f.p); err != nil {
				return err
			}
		case frameParams:
			if err := s.applyParams(f.p); err != nil {
				return err
			}
		case frameBNResult, frameBNAbort:
			// Stale reply from an aborted reduction; drop.
		default:
			return fmt.Errorf("dist: unexpected %s frame", proto.TypeName(f.t))
		}
		s.bufs.put(f.p)
	}
}

// buildModel reconstructs the replica from the spec and wires the
// sync-BN proxies.
func (s *workerSession) buildModel(spec Spec) error {
	m, sc, err := spec.Build()
	if err != nil {
		return err
	}
	s.model, s.hw = m, sc.HW
	s.rep = train.NewReplica(m)
	s.set.Plan(s.rep, 1) // slot 0 for the observe frame before the first run
	for i, bn := range s.rep.BatchNorms() {
		p := &bnProxy{s: s, group: i, c: bn.C}
		s.proxies = append(s.proxies, p)
		bn.SetSyncGroup(p)
	}
	s.values = s.rep.PackValues(nil)
	s.x = tensor.New(1)
	return nil
}

// readLoop routes inbound frames: BN replies go to the blocked
// reduction, everything else to the main loop (wire answers pings
// inline — liveness must not wait for compute). On error, which
// includes the coordinator's Bye, it wakes both consumers.
func (s *workerSession) readLoop() {
	for {
		t, p, err := s.fc.RecvData()
		if err != nil {
			close(s.readerDead)
			select {
			case s.workCh <- wframe{err: err}:
			case <-s.stop:
			}
			return
		}
		ch := s.workCh
		if t == frameBNResult || t == frameBNAbort {
			ch = s.bnCh
		}
		select {
		case ch <- wframe{t: t, p: s.bufs.fill(p)}:
		case <-s.stop:
			return
		}
	}
}

// applyState loads the primary's full state: params blob plus layer
// state vectors. LoadParams consumes the blob, which aliases p, before
// it returns.
func (s *workerSession) applyState(p []byte) error {
	d := wire.Dec{B: p}
	blob := d.Bytes()
	nStates := int(d.U32())
	// nStates comes off the wire: grow vecs by append, never size it
	// from the count.
	var vecs [][]float32
	for i := 0; i < nStates && !d.Failed(); i++ {
		vecs = append(vecs, d.F32s())
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := nn.LoadParams(bytes.NewReader(blob), s.model); err != nil {
		return fmt.Errorf("dist: state params: %w", err)
	}
	if err := nn.RestoreState(s.model, vecs); err != nil {
		return fmt.Errorf("dist: state vectors: %w", err)
	}
	s.stateReady = true
	return nil
}

// applyObserve folds the coordinator's merged observer ranges, exactly
// as an in-process replica folds them after its step.
func (s *workerSession) applyObserve(p []byte) error {
	d := wire.Dec{B: p}
	d.U64() // step
	_, _, lo, hi, seen := s.set.Slot(0)
	if err := decodeRanges(&d, lo, hi, seen); err != nil {
		return fmt.Errorf("dist: observe: %w", err)
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.rep.Observe(&s.set)
	return nil
}

// applyParams overwrites parameter values with the primary's
// post-optimizer state.
func (s *workerSession) applyParams(p []byte) error {
	d := wire.Dec{B: p}
	d.U64() // step
	if !d.F32sInto(s.values) {
		return fmt.Errorf("dist: params frame length mismatch")
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.rep.LoadValues(s.values)
	return nil
}

// sliceHeader is the slice frame's fixed head: step u64, then attempt,
// slice, count, batch_n and rows u32.
const sliceHeader = 8 + 5*4

// handleSlice computes a run of gradient slices and reports all of its
// slots in one slice_result. A sync-BN abort unwinds as a non-fatal
// SliceAborted (the coordinator retries the step); any other panic is
// reported fatal and surfaces as a skipped step on the coordinator.
func (s *workerSession) handleSlice(p []byte) error {
	d := wire.Dec{B: p}
	step := d.U64()
	att := d.U32()
	slice := d.U32()
	count := d.U32()
	batchN := int(d.U32())
	rows := int(d.U32())
	// The labels are taken as one run, and the payload must hold the
	// pixels of as many rows, before anything is sized from rows: a row
	// count the payload cannot hold fails here.
	labels := wire.Dec{B: d.Raw(4 * rows)}
	if d.Failed() || rows < 1 || batchN < rows || len(p) != sliceHeader+4*rows+4+4*rows*3*s.hw*s.hw {
		return fmt.Errorf("dist: malformed slice header")
	}
	// The run must be its rows' plan: count 8-row slices.
	if S := len(s.set.Plan(s.rep, rows)) - 1; uint32(S) != count {
		return fmt.Errorf("dist: slice frame carries %d slices, its %d rows plan %d", count, rows, S)
	}
	if cap(s.labels) < rows {
		s.labels = make([]int, rows)
	}
	s.labels = s.labels[:rows]
	for i := range s.labels {
		s.labels[i] = int(labels.U32())
	}
	s.x = tensor.Ensure(s.x, rows, 3, s.hw, s.hw)
	if !d.F32sInto(s.x.Data) {
		return fmt.Errorf("dist: slice input length mismatch")
	}
	if err := d.Err(); err != nil {
		return err
	}

	s.attempt = att
	for _, p := range s.proxies {
		p.first, p.phase = int(slice), 0
	}
	// Drop replies from a previous, aborted reduction.
	for {
		select {
		case f := <-s.bnCh:
			s.bufs.put(f.p)
			continue
		default:
		}
		break
	}

	if abortReason, fatal := s.computeRun(int(count), batchN); abortReason != "" {
		e := s.resetEnc()
		e.U64(step)
		e.U32(att)
		e.U32(slice)
		if fatal {
			e.U8(1)
		} else {
			e.U8(0)
		}
		e.Str(abortReason)
		return s.fc.Send(frameSliceAborted, e.B)
	}
	return s.sendResult(step, att, slice, int(count))
}

// sendResult reports the first count slots of the set, the run that
// starts at slice, as one slice_result.
func (s *workerSession) sendResult(step uint64, att, slice uint32, count int) error {
	e := s.resetEnc()
	e.U64(step)
	e.U32(att)
	e.U32(slice)
	e.U32(uint32(count))
	for k := 0; k < count; k++ {
		loss, grads, lo, hi, seen := s.set.Slot(k)
		e.F64(*loss)
		encodeRanges(e, lo, hi, seen)
		e.F32s(grads)
	}
	workerSlices.Add(float64(count))
	return s.fc.Send(frameSliceResult, e.B)
}

// resetEnc empties the session's reply encoder for the next frame.
func (s *workerSession) resetEnc() *wire.Enc {
	s.enc.B = s.enc.B[:0]
	return &s.enc
}

// computeRun runs the staged input, the plan's count slices, as one
// run (Replica.RunSlices) into slots 0..count. Panics are contained
// here: ErrSyncAborted is the cooperative unwind of an aborted sync-BN
// attempt; anything else is a genuine model failure.
func (s *workerSession) computeRun(count, batchN int) (abortReason string, fatal bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == nn.ErrSyncAborted {
				abortReason = "sync aborted"
				fatal = false
			} else {
				abortReason = fmt.Sprint(r)
				fatal = true
			}
		}
	}()
	s.rep.RunSlices(&s.set, 0, count, s.x, s.labels, batchN)
	return "", false
}

// bnProxy implements nn.BNSyncer for a worker's BatchNorm layers by
// round-tripping each reduction through the coordinator, which hosts
// the actual BNSyncGroup barrier on the workers' behalf. The worker's
// set holds its run at slots 0 on, so the proxy places the run's
// slices at the frame's first slice of the plan. An abort (or any
// connection failure) panics ErrSyncAborted, exactly like the
// in-process group, so BatchNorm's sync path needs no network
// awareness.
type bnProxy struct {
	s     *workerSession
	group int
	c     int
	first int   // the run's first slice in the step's plan
	phase uint8 // the run's reductions so far: 1 moments, 2 squares, 3 gradient sums
}

// Channels implements nn.BNSyncer.
func (p *bnProxy) Channels() int { return p.c }

// Reduce implements nn.BNSyncer: one bn_reduce, then the matching
// bn_result. Replies tagged with another attempt, group or phase are
// stale ones from an aborted attempt.
func (p *bnProxy) Reduce(first, _ int, v []float64) []float64 {
	p.phase++
	var e wire.Enc
	e.U32(p.s.attempt)
	e.U32(uint32(p.group))
	e.U8(p.phase)
	e.U32(uint32(p.first + first))
	e.F64s(v)
	if err := p.s.fc.Send(frameBNReduce, e.B); err != nil {
		panic(nn.ErrSyncAborted)
	}
	for {
		select {
		case r := <-p.s.bnCh:
			d := wire.Dec{B: r.p}
			if d.U32() != p.s.attempt || int(d.U32()) != p.group || d.U8() != p.phase || d.Failed() {
				p.s.bufs.put(r.p)
				continue
			}
			if r.t == frameBNAbort {
				p.s.bufs.put(r.p)
				panic(nn.ErrSyncAborted)
			}
			out, err := d.F64s(), d.Err()
			p.s.bufs.put(r.p)
			if err != nil {
				panic(err)
			}
			return out
		case <-p.s.readerDead:
			panic(nn.ErrSyncAborted)
		}
	}
}

package fleet

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/serve"
	"github.com/appmult/retrain/internal/wire"
)

// WorkerConfig parameterizes NewWorker.
type WorkerConfig struct {
	// Router is the router's fleet TCP address.
	Router string
	// Models are the serve specs this worker hosts. Every model is
	// loaded warm before the first dial, so the worker registers only
	// capacity it can actually serve.
	Models []serve.Spec
	// Autoscale turns on the worker-local per-model replica
	// autoscaler (see autoscale.go).
	Autoscale bool
	// Dial is the backoff policy for failed dials and reconnects; the
	// worker redials forever (a restarting router picks it back up).
	Dial wire.Backoff
	// Seed randomizes backoff jitter.
	Seed int64
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
	// WrapConn, when non-nil, wraps every dialed connection; tests use
	// it to interpose fault injectors and targeted kills.
	WrapConn func(net.Conn) net.Conn

	// autoscaleEvery overrides autoscaleInterval; in-package tests tick
	// faster.
	autoscaleEvery time.Duration
}

// quantGridLo and quantGridHi span the uint8 input grid a worker
// announces to the router for response caching: the router
// canonicalizes cached models' inputs onto this grid before dispatch.
// -3..3 covers the normalized image distribution.
const quantGridLo, quantGridHi = -3, 3

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Worker hosts warm serve replicas and computes predictions for the
// router. Build one with NewWorker, then drive it with Run.
type Worker struct {
	cfg    WorkerConfig
	models map[string]*serve.Model
	order  []string
}

// NewWorker loads every configured model into warm replicas. Loading
// happens once, before the first dial — reconnects re-register the
// already-warm set, which is what makes a worker restart cheap and a
// router restart invisible.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("fleet: worker needs at least one model")
	}
	w := &Worker{cfg: cfg, models: make(map[string]*serve.Model, len(cfg.Models))}
	for _, spec := range cfg.Models {
		m, err := serve.Load(spec)
		if err != nil {
			return nil, err
		}
		name := m.Spec().Name
		if _, dup := w.models[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate model name %q", name)
		}
		w.models[name] = m
		w.order = append(w.order, name)
		mm := m
		obs.Default().GaugeFunc("fleet_model_replicas",
			"Live inference replicas per hosted model on this worker.",
			func() float64 { return float64(mm.Replicas()) }, "model", name)
	}
	return w, nil
}

// Run joins the router and serves predict frames until dismissed
// (Bye → nil return) or the context is cancelled. A failed dial, or
// connection loss at any other point, re-enters the dial loop with
// exponential backoff; the router re-registers the model set
// on readmission and fails outstanding requests over to surviving
// replicas in the meantime. Run also starts the per-model autoscalers
// for its lifetime.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if w.cfg.Autoscale {
		every := autoscaleInterval
		if w.cfg.autoscaleEvery > 0 {
			every = w.cfg.autoscaleEvery
		}
		for _, name := range w.order {
			go runAutoscaler(ctx, w.models[name], every, w.cfg.Logf)
		}
	}
	cfg := w.cfg
	return wire.RunClient(ctx, proto, wire.ClientConfig{
		Addr: cfg.Router, Dial: cfg.Dial, Seed: cfg.Seed, Logf: cfg.Logf, WrapConn: cfg.WrapConn,
	}, w.serveConn)
}

// serveConn is one connection's session body: register, then serve
// predict frames until the stream ends (wire.ErrDismissed when the
// router said Bye).
func (w *Worker) serveConn(ctx context.Context, fc *wire.Conn, id int, welcome *wire.Dec) error {
	if err := welcome.Err(); err != nil {
		return err
	}
	if err := fc.Send(frameRegister, w.encodeRegister()); err != nil {
		return err
	}
	w.cfg.logf("worker %d: joined %s hosting %v", id, w.cfg.Router, w.order)
	for {
		t, p, err := fc.RecvData()
		if err != nil {
			return err
		}
		if t != framePredict {
			return fmt.Errorf("fleet: unexpected %s frame", proto.TypeName(t))
		}
		req, err := decodePredict(p)
		if err != nil {
			return err
		}
		go w.handlePredict(ctx, fc, req)
	}
}

// encodeRegister describes the hosted model set: per model its name,
// kind, classes, flattened input length, and the canonical quantization
// grid for caching.
func (w *Worker) encodeRegister() []byte {
	var e wire.Enc
	e.U32(uint32(len(w.order)))
	for _, name := range w.order {
		m := w.models[name]
		sp := m.Spec()
		e.Str(name)
		e.Str(sp.Kind)
		e.U32(uint32(sp.Classes))
		e.U32(uint32(m.ImageLen()))
		e.F32(quantGridLo)
		e.F32(quantGridHi)
	}
	return e.B
}

// predictReq is one decoded predict frame.
type predictReq struct {
	id       uint64
	model    string
	budgetMS uint32
	image    []float32
}

func decodePredict(p []byte) (predictReq, error) {
	d := wire.Dec{B: p}
	req := predictReq{
		id:       d.U64(),
		model:    d.Str(),
		budgetMS: d.U32(),
		image:    d.F32s(), // copies out of the recv buffer
	}
	return req, d.Err()
}

// handlePredict serves one request through the model's micro-batching
// queue and answers with a result or error frame. It runs on its own
// goroutine: predictions for different requests batch together inside
// serve while the frame reader keeps draining the connection.
func (w *Worker) handlePredict(ctx context.Context, fc *wire.Conn, req predictReq) {
	m, ok := w.models[req.model]
	if !ok {
		w.sendError(fc, req.id, errCodeBadRequest, fmt.Sprintf("unknown model %q", req.model))
		return
	}
	if len(req.image) != m.ImageLen() {
		w.sendError(fc, req.id, errCodeBadRequest,
			fmt.Sprintf("image has %d values, model %q wants %d", len(req.image), req.model, m.ImageLen()))
		return
	}
	var deadline time.Time
	if req.budgetMS > 0 {
		deadline = time.Now().Add(time.Duration(req.budgetMS) * time.Millisecond)
	}
	res := m.Batcher().Do(ctx, req.image, deadline)
	if res.Err != nil {
		code := uint8(errCodeInternal)
		switch res.Err {
		case serve.ErrOverloaded, serve.ErrDraining:
			code = errCodeOverloaded
		case serve.ErrDeadlineExceeded:
			code = errCodeExpired
		}
		w.sendError(fc, req.id, code, res.Err.Error())
		return
	}
	var e wire.Enc
	e.U64(req.id)
	e.U32(uint32(res.BatchSize))
	e.F32s(res.Scores)
	workerPredicts.Inc()
	fc.Send(frameResult, e.B) // a failed send tears the session down via the reader
}

func (w *Worker) sendError(fc *wire.Conn, id uint64, code uint8, msg string) {
	var e wire.Enc
	e.U64(id)
	e.U8(code)
	e.Str(msg)
	fc.Send(frameError, e.B)
}

// Drain gracefully drains every hosted model's batcher.
func (w *Worker) Drain(ctx context.Context) error {
	var first error
	for _, name := range w.order {
		if err := w.models[name].Batcher().Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

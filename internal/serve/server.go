package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// Server fronts a set of loaded models with the HTTP JSON API:
//
//	POST /v1/predict  {"model": "...", "image": [...], "timeout_ms": 0}
//	GET  /v1/models   list served models and their specs
//	GET  /healthz     "ok", or 503 "draining" during shutdown
//	GET  /statz       per-model serving metrics (JSON, exact percentiles)
//	GET  /metrics     process-wide obs registry in Prometheus text format
//
// Admission control and micro-batching live in each model's Batcher;
// the server maps their outcomes onto status codes: 429 when the
// bounded queue is full, 504 when a request's deadline passes while
// queued, 503 while draining.
type Server struct {
	models   map[string]*Model
	order    []string
	start    time.Time
	draining atomic.Bool
}

// NewServer builds a server over the given models. Model names must
// be unique.
func NewServer(ms ...*Model) (*Server, error) {
	if len(ms) == 0 {
		return nil, errors.New("serve: server needs at least one model")
	}
	s := &Server{models: make(map[string]*Model, len(ms)), start: time.Now()}
	for _, m := range ms {
		name := m.Spec().Name
		if _, dup := s.models[name]; dup {
			return nil, fmt.Errorf("serve: duplicate model name %q", name)
		}
		s.models[name] = m
		s.order = append(s.order, name)
	}
	return s, nil
}

// Handler returns the API routes. /metrics is the canonical export —
// the whole process's obs registry (serving, kernel, worker-pool, and
// training series) in Prometheus text format; /statz stays the
// JSON-shaped per-model view with exact sliding-window percentiles.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.Handle("/metrics", obs.Handler(obs.Default()))
	return mux
}

// Drain puts the server into draining mode (healthz flips to 503, new
// predictions are rejected) and drains every model's batcher: queued
// and in-flight requests complete, then the dispatchers stop. The
// first batcher error (e.g. a drain timeout) is returned, but every
// batcher is drained regardless.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var first error
	for _, name := range s.order {
		if err := s.models[name].Batcher().Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PredictRequest is the /v1/predict request body.
type PredictRequest struct {
	// Model selects the served model; optional when exactly one model
	// is loaded.
	Model string `json:"model"`
	// Image is the flattened (3, HW, HW) input, values roughly [-1, 1].
	Image []float32 `json:"image"`
	// TimeoutMS, when positive, is the request deadline: if no replica
	// picks the request up in time it fails with 504.
	TimeoutMS int `json:"timeout_ms"`
}

// Timeout returns TimeoutMS as a duration: zero when TimeoutMS is not
// positive, and the largest Duration when TimeoutMS milliseconds do
// not fit one. The product alone wraps: 9,300,000,000,000 ms would read
// as about −2.5 million hours.
func (r PredictRequest) Timeout() time.Duration {
	if r.TimeoutMS <= 0 {
		return 0
	}
	if int64(r.TimeoutMS) > math.MaxInt64/int64(time.Millisecond) {
		return math.MaxInt64
	}
	return time.Duration(r.TimeoutMS) * time.Millisecond
}

// PredictResponse is the /v1/predict success body.
type PredictResponse struct {
	Model string `json:"model"`
	// Label is the argmax class.
	Label int `json:"label"`
	// Scores are the classifier logits.
	Scores []float32 `json:"scores"`
	// BatchSize is the coalesced batch the request was served in.
	BatchSize int `json:"batch_size"`
	// QueueMS and TotalMS split the server-side latency.
	QueueMS float64 `json:"queue_ms"`
	TotalMS float64 `json:"total_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers with status and v as a JSON body. The fleet
// router's HTTP API answers through it and WriteError too, so both
// tiers speak the same wire shapes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the {"error": msg} body.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{msg})
}

// Argmax returns the predicted label of a score vector: the index of
// its largest score, the first one on a tie.
func Argmax(scores []float32) int {
	label := 0
	for i, v := range scores {
		if v > scores[label] {
			label = i
		}
	}
	return label
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	var req PredictRequest
	if err := DecodePredictRequest(r.Body, &req); err != nil {
		WriteError(w, DecodeStatus(err), "bad request: "+err.Error())
		return
	}
	name := req.Model
	if name == "" && len(s.order) == 1 {
		name = s.order[0]
	}
	m, ok := s.models[name]
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
		return
	}
	if len(req.Image) != m.ImageLen() {
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("image has %d values, model %q wants %d", len(req.Image), name, m.ImageLen()))
		return
	}
	var deadline time.Time
	if d := req.Timeout(); d > 0 {
		deadline = time.Now().Add(d)
	}

	start := time.Now()
	res := m.Batcher().Do(r.Context(), req.Image, deadline)
	if res.Err != nil {
		WriteError(w, statusFor(res.Err), res.Err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, PredictResponse{
		Model:     name,
		Label:     Argmax(res.Scores),
		Scores:    res.Scores,
		BatchSize: res.BatchSize,
		QueueMS:   float64(res.Queued) / float64(time.Millisecond),
		TotalMS:   float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// statusFor maps batcher outcomes onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Spec
		ImageLen int `json:"image_len"`
	}
	out := struct {
		Models []modelInfo `json:"models"`
	}{}
	for _, name := range s.order {
		m := s.models[name]
		out.Models = append(out.Models, modelInfo{Spec: m.Spec(), ImageLen: m.ImageLen()})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	out := struct {
		UptimeS float64          `json:"uptime_s"`
		Models  map[string]Stats `json:"models"`
	}{
		UptimeS: time.Since(s.start).Seconds(),
		Models:  make(map[string]Stats, len(s.models)),
	}
	for name, m := range s.models {
		out.Models[name] = m.Metrics().Snapshot()
	}
	WriteJSON(w, http.StatusOK, out)
}

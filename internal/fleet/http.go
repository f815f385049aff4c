package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/serve"
)

// PredictRequest is the router's /v1/predict request body: the very
// type internal/serve speaks, so clients and loadgen work unchanged
// against either tier. TimeoutMS here bounds the routed request end to
// end.
type PredictRequest = serve.PredictRequest

// PredictResponse is the router's /v1/predict success body: the serve
// response shape plus routing metadata.
type PredictResponse struct {
	// Model is the routed model name.
	Model string `json:"model"`
	// Label is the argmax class.
	Label int `json:"label"`
	// Scores are the classifier logits.
	Scores []float32 `json:"scores"`
	// BatchSize is the worker-side micro-batch (0 on a cache hit).
	BatchSize int `json:"batch_size"`
	// TotalMS is the router-side latency.
	TotalMS float64 `json:"total_ms"`
	// Cached is true when the response came from the response cache.
	Cached bool `json:"cached"`
	// Hedged is true when a hedge attempt was dispatched.
	Hedged bool `json:"hedged,omitempty"`
	// Attempts is the number of worker dispatches.
	Attempts int `json:"attempts"`
	// Worker identifies the answering worker (0 on a cache hit).
	Worker int `json:"worker,omitempty"`
}

// Handler returns the router's HTTP API:
//
//	POST /v1/predict  route one prediction through the fleet
//	GET  /v1/models   fleet-wide model catalog with live host counts
//	GET  /healthz     "ok" once at least one worker is registered
//	GET  /fleetz      router state: workers, cache occupancy, uptime
//	GET  /metrics     process-wide obs registry in Prometheus text format
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", r.handlePredict)
	mux.HandleFunc("/v1/models", r.handleModels)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/fleetz", r.handleFleetz)
	mux.Handle("/metrics", obs.Handler(obs.Default()))
	return mux
}

func (r *Router) handlePredict(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		serve.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var body PredictRequest
	if err := serve.DecodePredictRequest(req.Body, &body); err != nil {
		serve.WriteError(w, serve.DecodeStatus(err), "bad request: "+err.Error())
		return
	}
	name := body.Model
	if name == "" {
		if ms := r.Models(); len(ms) == 1 {
			name = ms[0].Name
		}
	}
	start := time.Now()
	scores, meta, err := r.Predict(req.Context(), name, body.Image, body.Timeout())
	if err != nil {
		serve.WriteError(w, httpStatusFor(err), err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, PredictResponse{
		Model:     name,
		Label:     serve.Argmax(scores),
		Scores:    scores,
		BatchSize: meta.BatchSize,
		TotalMS:   float64(time.Since(start)) / float64(time.Millisecond),
		Cached:    meta.Cached,
		Hedged:    meta.Hedged,
		Attempts:  meta.Attempts,
		Worker:    meta.WorkerID,
	})
}

// httpStatusFor maps router outcomes onto HTTP status codes, matching
// internal/serve's conventions.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrNoWorker):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (r *Router) handleModels(w http.ResponseWriter, req *http.Request) {
	out := struct {
		Models []ModelInfo `json:"models"`
	}{Models: r.Models()}
	serve.WriteJSON(w, http.StatusOK, out)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.Workers() == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no workers")
		return
	}
	fmt.Fprintln(w, "ok")
}

// fleetzWorker is one worker row in the /fleetz report.
type fleetzWorker struct {
	ID         int      `json:"id"`
	Models     []string `json:"models"`
	LastPongMS float64  `json:"last_pong_ms"`
}

func (r *Router) handleFleetz(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	workers := make([]fleetzWorker, 0, len(r.workers))
	for _, fw := range r.workers {
		workers = append(workers, fleetzWorker{
			ID:         fw.ID,
			Models:     modelNames(fw.models),
			LastPongMS: float64(time.Since(fw.LastPong())) / float64(time.Millisecond),
		})
	}
	r.mu.Unlock()
	entries, bytes := r.CacheStats()
	out := struct {
		UptimeS      float64        `json:"uptime_s"`
		Workers      []fleetzWorker `json:"workers"`
		Models       []ModelInfo    `json:"models"`
		CacheEntries int            `json:"cache_entries"`
		CacheBytes   int            `json:"cache_bytes"`
	}{
		UptimeS:      time.Since(r.start).Seconds(),
		Workers:      workers,
		Models:       r.Models(),
		CacheEntries: entries,
		CacheBytes:   bytes,
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

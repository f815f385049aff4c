package serve

import (
	"sync"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// latWindow is the size of the sliding window of per-request latencies
// kept for percentile estimation. 4096 samples bound both memory and
// the cost of the sort in Snapshot while covering several seconds of
// traffic at the throughputs a CPU backend reaches.
const latWindow = 4096

// Metrics aggregates one served model's counters: request outcomes,
// achieved batch sizes, and a sliding latency window. All methods are
// safe for concurrent use.
//
// The counts live in the process-wide obs registry, as counters and
// fixed-bucket histograms labeled by model — the canonical /metrics
// export — and /statz reads them from there; only the exact
// percentiles over recent traffic come from Metrics' own obs.Window.
// The registry is get-or-create, so two Metrics for the same model name
// share series and report the same totals.
type Metrics struct {
	start time.Time
	mu    sync.Mutex // guards lat
	lat   *obs.Window

	model      string
	completedC *obs.Counter
	rejectedC  *obs.Counter
	expiredC   *obs.Counter
	failedC    *obs.Counter
	batchesC   *obs.Counter
	latencyH   *obs.Histogram
	batchH     *obs.Histogram
}

// NewMetrics starts a metrics window at the current time for the named
// model, registering the model's serving series with the default obs
// registry.
func NewMetrics(model string) *Metrics {
	if model == "" {
		model = "default"
	}
	reg := obs.Default()
	const outcomeHelp = "Requests by final outcome: completed, rejected (queue full), expired (deadline passed while queued), failed (replica error or panic)."
	return &Metrics{
		start:      time.Now(),
		lat:        obs.NewWindow(latWindow),
		model:      model,
		completedC: reg.Counter("serve_requests_total", outcomeHelp, "model", model, "outcome", "completed"),
		rejectedC:  reg.Counter("serve_requests_total", outcomeHelp, "model", model, "outcome", "rejected"),
		expiredC:   reg.Counter("serve_requests_total", outcomeHelp, "model", model, "outcome", "expired"),
		failedC:    reg.Counter("serve_requests_total", outcomeHelp, "model", model, "outcome", "failed"),
		batchesC: reg.Counter("serve_batches_total",
			"Coalesced batches dispatched to replicas.", "model", model),
		latencyH: reg.Histogram("serve_request_latency_ms",
			"End-to-end latency of completed requests (queue wait plus inference).",
			obs.LatencyBucketsMs, "model", model),
		batchH: reg.Histogram("serve_batch_size",
			"Achieved size of dispatched batches.", obs.SizeBuckets, "model", model),
	}
}

// Complete records one successfully served request and its end-to-end
// latency (queue wait + inference).
func (m *Metrics) Complete(latency time.Duration) {
	ms := float64(latency) / float64(time.Millisecond)
	m.mu.Lock()
	m.lat.Observe(ms)
	m.mu.Unlock()
	m.completedC.Inc()
	m.latencyH.Observe(ms)
}

// Reject records one request refused at admission (queue full or
// draining).
func (m *Metrics) Reject() { m.rejectedC.Inc() }

// Expire records one request whose deadline passed while queued.
func (m *Metrics) Expire() { m.expiredC.Inc() }

// Fail records one request that reached a replica but errored.
func (m *Metrics) Fail() { m.failedC.Inc() }

// Batch records one dispatched batch of the given size.
func (m *Metrics) Batch(size int) {
	m.batchesC.Inc()
	m.batchH.Observe(float64(size))
}

// Stats is a point-in-time snapshot of a model's serving metrics, in
// the shape /statz reports.
type Stats struct {
	Completed     uint64  `json:"completed"`
	Rejected      uint64  `json:"rejected"`
	Expired       uint64  `json:"expired"`
	Failed        uint64  `json:"failed"`
	Batches       uint64  `json:"batches"`
	MeanBatch     float64 `json:"mean_batch"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

// Snapshot computes the current stats from the registry series.
// Percentiles cover the sliding latency window; throughput covers the
// full lifetime of the metrics.
func (m *Metrics) Snapshot() Stats {
	s := Stats{
		Completed: uint64(m.completedC.Value()),
		Rejected:  uint64(m.rejectedC.Value()),
		Expired:   uint64(m.expiredC.Value()),
		Failed:    uint64(m.failedC.Value()),
		Batches:   uint64(m.batchesC.Value()),
	}
	if b := m.batchH.Snapshot(); b.Count > 0 {
		s.MeanBatch = b.Sum / float64(b.Count)
	}
	if el := time.Since(m.start).Seconds(); el > 0 {
		s.ThroughputRPS = float64(s.Completed) / el
	}
	m.mu.Lock()
	p := m.lat.Quantiles(0.50, 0.95, 0.99)
	m.mu.Unlock()
	if p != nil {
		s.P50Ms, s.P95Ms, s.P99Ms = p[0], p[1], p[2]
	}
	return s
}

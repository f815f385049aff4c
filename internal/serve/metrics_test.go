package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// TestMetricsEndpoint is the observability acceptance gate: /metrics
// on a serving mux must expose the process-wide registry — serving
// series for the loaded model plus the nn kernel and tensor pool
// series the model's warm-up already exercised — as valid Prometheus
// text, with at least 15 distinct series, while /statz keeps its
// original JSON shape (covered by TestHTTPIntrospection).
func TestMetricsEndpoint(t *testing.T) {
	_, ts, m := newTestServer(t)

	// Serve one request so the model's serving series have data.
	img := make([]float32, m.ImageLen())
	if resp, body := postPredict(t, ts.URL, PredictRequest{Image: img}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, types, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}

	distinct := map[string]bool{}
	for _, s := range samples {
		distinct[s.Key()] = true
	}
	if len(distinct) < 15 {
		t.Errorf("/metrics exposes %d distinct series, want >= 15:\n%s", len(distinct), body)
	}

	// Every layer of the stack must be represented.
	for _, want := range []string{"serve_", "nn_kernel_", "tensor_pool_"} {
		found := false
		for _, s := range samples {
			if strings.HasPrefix(s.Name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("/metrics has no %s* series", want)
		}
	}
	for name, kind := range map[string]obs.Kind{
		"serve_requests_total":     obs.KindCounter,
		"serve_request_latency_ms": obs.KindHistogram,
		"serve_batch_size":         obs.KindHistogram,
		"serve_queue_depth":        obs.KindGauge,
		"nn_kernel_dispatch_total": obs.KindCounter,
		"tensor_pool_jobs_total":   obs.KindCounter,
	} {
		if types[name] != kind {
			t.Errorf("metric %s has TYPE %q, want %q", name, types[name], kind)
		}
	}

	// The model's completed counter reflects the request served above,
	// and a table/closed-form forward kernel tier ran during
	// warm-up/inference. Which tier depends on the host (arith needs
	// AVX2), so count every non-behavioral forward path.
	var completed, fwdKernel float64
	for _, s := range samples {
		switch {
		case s.Name == "serve_requests_total" &&
			s.Label("model") == m.Spec().Name && s.Label("outcome") == "completed":
			completed = s.Value
		case s.Name == "nn_kernel_dispatch_total" && s.Label("kernel") == "forward":
			switch s.Label("path") {
			case "arith", "packed16", "blocked":
				fwdKernel += s.Value
			}
		}
	}
	if completed < 1 {
		t.Error("serve_requests_total{outcome=completed} not incremented")
	}
	if fwdKernel < 1 {
		t.Error("nn_kernel_dispatch_total{kernel=forward} has no arith/packed16/blocked increments")
	}
}

// TestMetricsMirrorsStatz pins the facade contract: every event the
// sliding-window Stats snapshot counts must land identically in the
// registry counters.
func TestMetricsMirrorsStatz(t *testing.T) {
	// The registry is process-wide and get-or-create, so each run
	// (-count=N) needs its own model label to start from zero.
	mm := NewMetrics("mirror-test-" + strconv.FormatInt(time.Now().UnixNano(), 36))
	mm.Complete(3 * time.Millisecond)
	mm.Complete(7 * time.Millisecond)
	mm.Reject()
	mm.Expire()
	mm.Fail()
	mm.Batch(2)

	st := mm.Snapshot()
	if st.Completed != 2 || st.Rejected != 1 || st.Expired != 1 || st.Failed != 1 || st.Batches != 1 {
		t.Fatalf("statz snapshot wrong: %+v", st)
	}
	if got := mm.completedC.Value(); got != float64(st.Completed) {
		t.Errorf("registry completed = %v, statz %d", got, st.Completed)
	}
	if got := mm.rejectedC.Value(); got != float64(st.Rejected) {
		t.Errorf("registry rejected = %v, statz %d", got, st.Rejected)
	}
	h := mm.latencyH.Snapshot()
	if h.Count != st.Completed {
		t.Errorf("latency histogram count = %d, statz completed %d", h.Count, st.Completed)
	}
	if h.Sum < 9.9 || h.Sum > 10.1 {
		t.Errorf("latency histogram sum = %v ms, want ~10", h.Sum)
	}
}

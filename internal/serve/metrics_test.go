package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/nn"
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
			if s.Label("path") != nn.FwdPathBehavioral {
				fwdKernel += s.Value
			}
		}
	}
	if completed < 1 {
		t.Error("serve_requests_total{outcome=completed} not incremented")
	}
	if fwdKernel < 1 {
		t.Error("nn_kernel_dispatch_total{kernel=forward} has no increments off the behavioral path")
	}
}

// freshMetrics returns Metrics under a model name no other test or run
// (-count=N) uses: the registry is process-wide and get-or-create, so a
// test that reads counts must start its series from zero.
func freshMetrics(t testing.TB) *Metrics {
	return NewMetrics(t.Name() + "-" + strconv.FormatInt(time.Now().UnixNano(), 36))
}

// TestMetricsMirrorsStatz pins the one-sink contract: every count
// /statz reports is the registry series /metrics exports, and the mean
// batch is the batch-size histogram's Sum / Count.
func TestMetricsMirrorsStatz(t *testing.T) {
	mm := freshMetrics(t)
	mm.Complete(3 * time.Millisecond)
	mm.Complete(7 * time.Millisecond)
	mm.Reject()
	mm.Expire()
	mm.Fail()
	mm.Batch(2)
	mm.Batch(5)

	st := mm.Snapshot()
	if st.Completed != 2 || st.Rejected != 1 || st.Expired != 1 || st.Failed != 1 || st.Batches != 2 {
		t.Fatalf("statz snapshot wrong: %+v", st)
	}
	reg := obs.Default()
	for outcome, n := range map[string]uint64{
		"completed": st.Completed, "rejected": st.Rejected, "expired": st.Expired, "failed": st.Failed,
	} {
		if got, ok := reg.ReadValue("serve_requests_total", "model", mm.model, "outcome", outcome); !ok || got != float64(n) {
			t.Errorf("serve_requests_total{outcome=%s} = %v (found %v), statz %d", outcome, got, ok, n)
		}
	}
	if got, ok := reg.ReadValue("serve_batches_total", "model", mm.model); !ok || got != float64(st.Batches) {
		t.Errorf("serve_batches_total = %v (found %v), statz %d", got, ok, st.Batches)
	}
	b, ok := reg.ReadHistogram("serve_batch_size", "model", mm.model)
	if !ok || b.Count != st.Batches || st.MeanBatch != b.Sum/float64(b.Count) || st.MeanBatch != 3.5 {
		t.Errorf("mean_batch = %v, serve_batch_size sum %v / count %d (found %v)", st.MeanBatch, b.Sum, b.Count, ok)
	}
	h, ok := reg.ReadHistogram("serve_request_latency_ms", "model", mm.model)
	if !ok || h.Count != st.Completed || h.Sum < 9.9 || h.Sum > 10.1 {
		t.Errorf("latency histogram count %d sum %v ms (found %v), want %d and ~10", h.Count, h.Sum, ok, st.Completed)
	}
}

// TestMetricsShareSeriesByModel: the registry is get-or-create, so two
// Metrics for one model name count into the same series and /statz
// reports the same totals through either.
func TestMetricsShareSeriesByModel(t *testing.T) {
	a := freshMetrics(t)
	b := NewMetrics(a.model)
	a.Complete(time.Millisecond)
	b.Complete(time.Millisecond)
	b.Reject()
	a.Batch(1)
	b.Batch(3)
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.Completed != 2 || sa.Rejected != 1 || sa.Batches != 2 || sa.MeanBatch != 2 {
		t.Errorf("first Metrics: %+v", sa)
	}
	if sb.Completed != sa.Completed || sb.Rejected != sa.Rejected || sb.Batches != sa.Batches || sb.MeanBatch != sa.MeanBatch {
		t.Errorf("second Metrics %+v differs from first %+v", sb, sa)
	}
}

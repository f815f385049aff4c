package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// testSpec is small enough to load in well under a second.
func testSpec(name string) Spec {
	return Spec{
		Name: name, Kind: "lenet", Classes: 3, InputHW: 8, Width: 0.08,
		MaxBatch: 4, Replicas: 1, Seed: 7,
	}
}

func TestLoadRejectsBadSpecs(t *testing.T) {
	if _, err := Load(Spec{Kind: "alexnet"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Load(Spec{Kind: "lenet", Mult: "no_such_mult"}); err == nil {
		t.Error("unknown multiplier accepted")
	}
	if _, err := Load(Spec{Kind: "lenet", Classes: 3, InputHW: 8, Width: 0.08,
		Ckpt: filepath.Join(t.TempDir(), "missing.ckpt")}); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

// TestLoadRestoresCheckpoint trains nothing but saves a freshly seeded
// model under one seed and loads it into a serve model built under a
// different seed: predictions must come from the checkpoint, i.e. match
// a direct Predict on the saved model bit-for-bit.
func TestLoadRestoresCheckpoint(t *testing.T) {
	spec := testSpec("ckpt")
	ref, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Build the source the way Load does and run the same warm-up, so the
	// checkpoint carries calibrated activation observers; the restored
	// model's own warm-up then leaves them untouched.
	src := train.BuildModel(spec.Kind, spec.Classes, train.Scale{HW: spec.InputHW, Width: spec.Width},
		models.ApproxConv(mustOp(t, "mul8u_acc")), spec.Seed)
	warm := tensor.New(spec.MaxBatch, 3, spec.InputHW, spec.InputHW)
	warm.RandNormal(rand.New(rand.NewSource(spec.Seed)), 1)
	src.Predict(warm)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	st := train.CheckpointState{Seed: spec.Seed, Adam: optim.NewAdam().Snapshot(src.Params())}
	if err := train.SaveCheckpoint(path, src, st); err != nil {
		t.Fatal(err)
	}

	other := spec
	other.Name = "restored"
	other.Seed = 999 // different init — the checkpoint must win
	other.Ckpt = path
	got, err := Load(other)
	if err != nil {
		t.Fatal(err)
	}

	img := make([]float32, got.ImageLen())
	for i := range img {
		img[i] = float32(math.Sin(float64(i)))
	}
	want := predictOne(t, ref, img)
	have := predictOne(t, got, img)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(have[i]) {
			t.Fatalf("restored model diverges at class %d: %v vs %v", i, have[i], want[i])
		}
	}
}

func mustOp(t *testing.T, name string) *nn.Op {
	t.Helper()
	op, err := opFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func predictOne(t *testing.T, m *Model, img []float32) []float32 {
	t.Helper()
	res := m.Batcher().Do(context.Background(), img, time.Time{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Scores
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, *Model) {
	t.Helper()
	m, err := Load(testSpec("lenet-test"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m
}

func postPredict(t *testing.T, url string, req PredictRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestHTTPPredict(t *testing.T) {
	_, ts, m := newTestServer(t)
	img := make([]float32, m.ImageLen())
	for i := range img {
		img[i] = float32(i%7)/7 - 0.5
	}

	// Model name may be omitted when only one model is served.
	resp, body := postPredict(t, ts.URL, PredictRequest{Image: img})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Scores) != 3 || pr.Label < 0 || pr.Label > 2 {
		t.Fatalf("bad response: %+v", pr)
	}
	if pr.BatchSize < 1 || pr.TotalMS <= 0 {
		t.Errorf("missing serving metadata: %+v", pr)
	}
	for i, v := range pr.Scores {
		if v > pr.Scores[pr.Label] {
			t.Errorf("label %d is not argmax (class %d scores higher)", pr.Label, i)
		}
	}

	cases := []struct {
		name string
		req  PredictRequest
		want int
	}{
		{"wrong image length", PredictRequest{Model: "lenet-test", Image: img[:5]}, http.StatusBadRequest},
		{"unknown model", PredictRequest{Model: "nope", Image: img}, http.StatusNotFound},
		{"empty image", PredictRequest{Model: "lenet-test"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if resp, body := postPredict(t, ts.URL, c.req); resp.StatusCode != c.want {
			t.Errorf("%s: got %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
	}

	// GET is not allowed on the predict route.
	resp2, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: got %d, want 405", resp2.StatusCode)
	}
}

// TestHTTPPredictBodyCap: a body one byte over the decoder's cap gets
// 413 without being read past that byte.
func TestHTTPPredictBodyCap(t *testing.T) {
	s, _, _ := newTestServer(t)
	body := &countingReader{n: maxBody + 1<<20}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s, want 413", rec.Code, rec.Body)
	}
	if body.read > maxBody+1 {
		t.Errorf("oversized body: read %d bytes, want at most %d", body.read, maxBody+1)
	}
}

func TestHTTPIntrospection(t *testing.T) {
	_, ts, m := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	var ml struct {
		Models []struct {
			Name     string `json:"name"`
			Kind     string `json:"kind"`
			ImageLen int    `json:"image_len"`
		} `json:"models"`
	}
	getJSON(t, ts.URL+"/v1/models", &ml)
	if len(ml.Models) != 1 || ml.Models[0].Name != "lenet-test" ||
		ml.Models[0].Kind != "lenet" || ml.Models[0].ImageLen != m.ImageLen() {
		t.Errorf("models listing: %+v", ml)
	}

	// Serve one request so statz has counters.
	img := make([]float32, m.ImageLen())
	if resp, body := postPredict(t, ts.URL, PredictRequest{Image: img}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var stz struct {
		UptimeS float64          `json:"uptime_s"`
		Models  map[string]Stats `json:"models"`
	}
	getJSON(t, ts.URL+"/statz", &stz)
	st, ok := stz.Models["lenet-test"]
	if !ok || st.Completed < 1 || st.Batches < 1 || st.MeanBatch < 1 || st.P99Ms <= 0 {
		t.Errorf("statz: %+v", stz)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPDrain is the serving-layer half of graceful shutdown: after
// Drain, healthz flips to 503 and predictions are refused, while the
// drain itself completes cleanly with no traffic in flight.
func TestHTTPDrain(t *testing.T) {
	s, ts, m := newTestServer(t)
	img := make([]float32, m.ImageLen())
	if resp, body := postPredict(t, ts.URL, PredictRequest{Image: img}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain predict: %d %s", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !s.draining.Load() {
		t.Error("server not marked draining")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	if resp, _ := postPredict(t, ts.URL, PredictRequest{Image: img}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("predict after drain: %d, want 503", resp.StatusCode)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(); err == nil {
		t.Error("empty server accepted")
	}
	m, err := Load(testSpec("dup"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Batcher().Drain(context.Background())
	if _, err := NewServer(m, m); err == nil {
		t.Error("duplicate model names accepted")
	}
}

// TestWeightPrepMissesOncePerLayerPerReplica: the approximate layers
// build their weight-side GEMM state once per weight version, and a
// served model's weights never change — so nn_weight_prep_total counts
// one miss per approximate layer per replica, all of them during Load's
// warm-up, and a hundred requests later still does: every request only
// hits.
func TestWeightPrepMissesOncePerLayerPerReplica(t *testing.T) {
	prep := func(result string) float64 {
		return obs.Default().Counter("nn_weight_prep_total", "", "result", result).Value()
	}
	spec := testSpec("prep")
	spec.Replicas = 2
	miss0 := prep("miss")
	m, err := Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	layers := 0
	nn.VisitLayers(m.base, func(l nn.Layer) {
		if _, ok := l.(*nn.ApproxConv2D); ok {
			layers++
		}
	})
	if got, want := prep("miss")-miss0, float64(layers*spec.Replicas); layers == 0 || got != want {
		t.Fatalf("%v weight-side builds while loading %d replicas of %d approximate layers, want %v", got, spec.Replicas, layers, want)
	}

	miss1, hit1 := prep("miss"), prep("hit")
	img := make([]float32, m.ImageLen())
	const requests = 100
	for i := 0; i < requests; i++ {
		img[i%len(img)] = float32(i) / requests
		predictOne(t, m, img)
	}
	if got := prep("miss") - miss1; got != 0 {
		t.Errorf("%v weight-side builds while serving %d requests, want none", got, requests)
	}
	if got, want := prep("hit")-hit1, float64(requests*layers); got != want {
		t.Errorf("%v weight-side hits over %d lone requests through %d layers, want %v", got, requests, layers, want)
	}
}

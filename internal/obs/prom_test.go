package obs

import (
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds the fixed registry state the golden file pins:
// one of every metric kind, multiple label sets, escaping-sensitive
// values.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("serve_requests_total", "Requests by outcome.", "model", "lenet", "outcome", "completed").Add(12)
	r.Counter("serve_requests_total", "Requests by outcome.", "model", "lenet", "outcome", "rejected").Add(3)
	r.Gauge("serve_queue_depth", "Jobs waiting in the admission queue.", "model", "lenet").Set(2)
	r.GaugeFunc("process_up", "Always 1 while the process serves.", func() float64 { return 1 })
	h := r.Histogram("serve_request_latency_ms", "End-to-end request latency.", []float64{1, 5, 25}, "model", "lenet")
	for _, v := range []float64{0.2, 0.9, 3, 17, 80} {
		h.Observe(v)
	}
	r.Gauge("weird_values", `Label escaping: backslash \ quote " newline.`, "path", `C:\tmp`+"\n").Set(math.Inf(1))
	return r
}

// TestPromGolden pins the exact bytes of the text encoding: families
// sorted by name, series by label string, HELP/TYPE lines, cumulative
// histogram buckets with le labels, escaped label values.
func TestPromGolden(t *testing.T) {
	var sb strings.Builder
	if err := WriteTo(&sb, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	golden := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("encoding drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestParseRoundTrip feeds the encoder output through the parser and
// checks names, labels, values, and TYPE lines survive.
func TestParseRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := WriteTo(&sb, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, types, err := ParseText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if types["serve_requests_total"] != KindCounter ||
		types["serve_queue_depth"] != KindGauge ||
		types["serve_request_latency_ms"] != KindHistogram {
		t.Errorf("parsed types wrong: %v", types)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	if v := byKey[`serve_requests_total{model=lenet,outcome=completed,}`]; v != 12 {
		t.Errorf("completed counter = %v, want 12", v)
	}
	// Cumulative bucket le="25" holds 4 of the 5 observations.
	if v := byKey[`serve_request_latency_ms_bucket{le=25,model=lenet,}`]; v != 4 {
		t.Errorf("le=25 bucket = %v, want 4", v)
	}
	if v := byKey[`serve_request_latency_ms_count{model=lenet,}`]; v != 5 {
		t.Errorf("histogram count = %v, want 5", v)
	}
	// The escaped label value must round-trip back to the original.
	found := false
	for _, s := range samples {
		if s.Name == "weird_values" {
			found = true
			if got := s.Label("path"); got != `C:\tmp`+"\n" {
				t.Errorf("escaped label round-trip = %q", got)
			}
			if !math.IsInf(s.Value, 1) {
				t.Errorf("+Inf value round-trip = %v", s.Value)
			}
		}
	}
	if !found {
		t.Error("weird_values sample missing after round-trip")
	}
}

// TestParseLabelValueWithBrace: WriteTo does not escape "}", and serve
// and fleet label series with user-chosen model names, so the parser
// must not end a label block at a brace inside a quoted value.
func TestParseLabelValueWithBrace(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", "model", "a}b", "outcome", "{ok}").Add(1)
	var sb strings.Builder
	if err := WriteTo(&sb, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, _, err := ParseText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Label("model") != "a}b" || samples[0].Label("outcome") != "{ok}" || samples[0].Value != 1 {
		t.Errorf("round trip of %q = %+v", sb.String(), samples)
	}
}

// FuzzParseText: whatever ParseText accepts, WriteTo re-encodes into
// text that ParseText reads back as the same samples.
func FuzzParseText(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "prom_golden.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	f.Add(`x_total{model="a}b"} 1`)
	f.Fuzz(func(t *testing.T, data string) {
		samples, _, err := ParseText(data)
		if err != nil {
			return
		}
		fams := make([]Family, len(samples))
		for i, s := range samples {
			fams[i] = Family{Name: s.Name, Kind: KindGauge, Samples: []SeriesValue{{Name: s.Name, Labels: s.Labels, Value: s.Value}}}
		}
		var sb strings.Builder
		if err := WriteTo(&sb, fams); err != nil {
			t.Fatal(err)
		}
		again, _, err := ParseText(sb.String())
		if err != nil {
			t.Fatalf("ParseText rejects WriteTo's encoding %q of %q: %v", sb.String(), data, err)
		}
		if len(again) != len(samples) {
			t.Fatalf("%d samples read back as %d from %q", len(samples), len(again), sb.String())
		}
		for i, s := range samples {
			a := again[i]
			sameValue := a.Value == s.Value || math.IsNaN(a.Value) && math.IsNaN(s.Value)
			if a.Name != s.Name || !slices.Equal(a.Labels, s.Labels) || !sameValue {
				t.Fatalf("sample %d: %+v read back as %+v from %q", i, s, a, sb.String())
			}
		}
	})
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		`unterminated{a="b" 1`,
		`badlabel{a=b} 1`,
		"name notanumber",
	} {
		if _, _, err := ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", bad)
		}
	}
}

// TestHTTPEndpoint exercises Handler and DebugMux: /metrics serves
// parseable text with the exposition content type, and the pprof index
// answers on the debug mux.
func TestHTTPEndpoint(t *testing.T) {
	r := goldenRegistry()
	ts := httptest.NewServer(DebugMux(r))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := ParseText(string(body))
	if err != nil || len(samples) == 0 {
		t.Fatalf("metrics endpoint unparseable: %v (%d samples)", err, len(samples))
	}

	pp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %d", pp.StatusCode)
	}
}

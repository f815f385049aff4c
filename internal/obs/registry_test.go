package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", "outcome", "ok")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("requests_total", "requests", "outcome", "ok"); again != c {
		t.Error("get-or-create returned a different counter for the same series")
	}
	other := r.Counter("requests_total", "requests", "outcome", "failed")
	if other == c {
		t.Error("different labels returned the same counter")
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}

	done := false
	r.GaugeFunc("cb", "callback", func() float64 { done = true; return 42 })
	fams := r.Snapshot()
	if !done {
		t.Error("callback gauge not invoked at snapshot")
	}
	if v, ok := findSample(fams, "cb"); !ok || v != 42 {
		t.Errorf("callback gauge = %v (found=%v), want 42", v, ok)
	}

	// Re-registering a callback replaces the closure.
	r.GaugeFunc("cb", "callback", func() float64 { return 43 })
	if v, _ := findSample(r.Snapshot(), "cb"); v != 43 {
		t.Errorf("replaced callback gauge = %v, want 43", v)
	}
}

// TestReadValueSumsPartialLabels: a counter read with some of its label
// keys sums the series that carry them, so splitting a counter by a new
// label keeps a reader of the total working; a gauge does not sum.
func TestReadValueSumsPartialLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("blocks_total", "", "who", "submitter", "pool", "a").Add(3)
	r.Counter("blocks_total", "", "who", "worker", "pool", "a").Add(4)
	r.Counter("blocks_total", "", "who", "worker", "pool", "b").Add(5)
	r.Gauge("depth", "", "queue", "x").Set(2)
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
		ok     bool
	}{
		{"blocks_total", nil, 12, true},
		{"blocks_total", []string{"who", "worker"}, 9, true},
		{"blocks_total", []string{"pool", "a"}, 7, true},
		{"blocks_total", []string{"who", "worker", "pool", "b"}, 5, true},
		{"blocks_total", []string{"who", "nobody"}, 0, false},
		{"blocks_total", []string{"who", "worker", "pool", "c"}, 0, false},
		{"depth", nil, 0, false},
		{"depth", []string{"queue", "x"}, 2, true},
	} {
		if v, ok := r.ReadValue(c.name, c.labels...); v != c.want || ok != c.ok {
			t.Errorf("ReadValue(%s, %v) = %v, %v; want %v, %v", c.name, c.labels, v, ok, c.want, c.ok)
		}
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestLabelKeyMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", "a", "1")
	defer func() {
		if recover() == nil {
			t.Error("re-registering with different label keys did not panic")
		}
	}()
	r.Counter("m", "", "b", "1")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 0.7, 3, 4, 7, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if want := 0.5 + 0.7 + 3 + 4 + 7 + 50; math.Abs(s.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, want)
	}
	wantCum := []uint64{2, 4, 5}
	for i, c := range s.Cumulative {
		if c != wantCum[i] {
			t.Errorf("bucket le=%v cumulative = %d, want %d", s.Bounds[i], c, wantCum[i])
		}
	}
	// Median rank 3 falls in the (1, 5] bucket: interpolated strictly
	// inside it.
	if q := s.Quantile(0.5); q <= 1 || q > 5 {
		t.Errorf("p50 = %v, want within (1, 5]", q)
	}
	// p99 lands in the +Inf bucket: clamped to the largest finite bound.
	if q := s.Quantile(0.99); q != 10 {
		t.Errorf("p99 = %v, want 10 (highest finite bound)", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty-histogram quantile = %v, want 0", q)
	}
}

func TestHistogramValidation(t *testing.T) {
	r := NewRegistry()
	for name, bounds := range map[string][]float64{
		"empty":     {},
		"unordered": {5, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			r.Histogram("h_"+name, "", bounds)
		}()
	}
}

// TestConcurrentWritersAndReaders is the -race exercise the Makefile's
// race target runs: parallel counter/gauge/histogram writers, lazy
// registrations, and snapshot readers all at once.
func TestConcurrentWritersAndReaders(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("race_total", "", "writer", string(rune('a'+w)))
			g := r.Gauge("race_gauge", "")
			h := r.Histogram("race_hist", "", []float64{1, 10, 100})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 128))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()

	s := r.Histogram("race_hist", "", []float64{1, 10, 100}).Snapshot()
	if want := uint64(writers * perWriter); s.Count != want {
		t.Errorf("histogram count = %d, want %d", s.Count, want)
	}
	var total float64
	for w := 0; w < writers; w++ {
		total += r.Counter("race_total", "", "writer", string(rune('a'+w))).Value()
	}
	if want := float64(writers * perWriter); total != want {
		t.Errorf("counters sum = %v, want %v", total, want)
	}
}

// findSample locates a flattened sample value by name across families.
func findSample(fams []Family, name string) (float64, bool) {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name {
				return s.Value, true
			}
		}
	}
	return 0, false
}

package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 50}, {0.5, 30},
		{0.10, 14}, // position 0.4 between 10 and 20
		{0.25, 20},
		{0.90, 46}, // position 3.6 between 40 and 50
	} {
		if got := percentile(vals, c.q); !near(got, c.want) {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vals[0] != 50 {
		t.Errorf("percentile reordered its input: %v", vals)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.1); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
}

func TestTrimmedHalfMean(t *testing.T) {
	// Fastest half of five values is the three smallest: (1+2+3)/3. The
	// two slow outliers, which interference produced, do not count.
	if got := trimmedHalfMean([]float64{100, 3, 1, 2, 1000}); !near(got, 2) {
		t.Errorf("odd count: got %v, want 2", got)
	}
	if got := trimmedHalfMean([]float64{4, 1, 3, 2}); !near(got, 1.5) {
		t.Errorf("even count: got %v, want 1.5", got)
	}
	if got := trimmedHalfMean(nil); got != 0 {
		t.Errorf("empty: got %v, want 0", got)
	}
}

func TestStratified(t *testing.T) {
	// Class 0 (fresh) is slow, class 1 (repeat) fast, three to one.
	vals := []float64{10, 1, 12, 14}
	class := []uint8{0, 1, 0, 0}
	// p50 per class: fresh 12, repeat 1; weights 3/4 and 1/4.
	if got, want := stratified(vals, class, p50), 12*0.75+1*0.25; !near(got, want) {
		t.Errorf("stratified p50 = %v, want %v", got, want)
	}
	// Unstratified, the median would sit between the classes.
	if got := p50(vals); !near(got, 11) {
		t.Errorf("plain p50 = %v, want 11", got)
	}
	// One class: the estimator itself.
	if got := stratified(vals, []uint8{0, 0, 0, 0}, p10); !near(got, p10(vals)) {
		t.Errorf("single class = %v, want %v", got, p10(vals))
	}
}

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	vals := make([]float64, 999)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, ok := tailPercentile(vals, 0.99, 10); ok {
		t.Error("p99 of 999 samples has only 9 beyond it: must not be reported")
	}
	vals = append(vals, 999)
	if v, ok := tailPercentile(vals, 0.99, 10); !ok || !near(v, 989.01) {
		t.Errorf("p99 of 1000 samples = %v, %v; want 989.01, true", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// -> [3.5, 24.0, 160.0]
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if !near(q1, 3.5) || !near(med, 24) || !near(q3, 160) {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) -> [1.0, 2.0, 3.0]
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(med, 2) || !near(q3, 3) {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

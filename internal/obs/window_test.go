package obs

import (
	"reflect"
	"testing"
)

func TestWindowQuantilesNearestRank(t *testing.T) {
	w := NewWindow(4)
	if q := w.Quantiles(0.5); q != nil {
		t.Fatalf("empty window reports %v", q)
	}
	for _, v := range []float64{30, 10, 20} {
		w.Observe(v)
	}
	// Nearest rank over {10, 20, 30}: ceil(q*3) picks the 1st, 2nd, 3rd.
	if got, want := w.Quantiles(0, 0.33, 0.5, 0.67, 1), []float64{10, 10, 20, 30, 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quantiles %v, want %v", got, want)
	}
	// The fourth observation fills the ring, the fifth evicts the oldest
	// (30), the largest so far.
	w.Observe(5)
	w.Observe(15)
	if got, want := w.Quantiles(0, 0.5, 1), []float64{5, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after wrap-around quantiles %v, want %v", got, want)
	}
}

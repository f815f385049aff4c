package obs

import (
	"math/rand"
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

// TestWindowQuantileMatchesSort: the selecting Quantile returns what
// the sorting Quantiles returns, on windows partly filled, full and
// wrapped, with few distinct values (long runs of duplicates) and many,
// at every rank from the minimum to the maximum.
func TestWindowQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, size := range []int{1, 2, 3, 7, 64, 512} {
		for _, distinct := range []int{1, 2, 5, 1 << 20} {
			w := NewWindow(size)
			if _, ok := w.Quantile(0.95); ok {
				t.Fatal("empty window reports a quantile")
			}
			for obs := 1; obs <= 2*size+3; obs++ {
				w.Observe(float64(rng.Intn(distinct)) + 0.5)
				for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1, rng.Float64()} {
					got, ok := w.Quantile(q)
					if want := w.Quantiles(q)[0]; !ok || got != want {
						t.Fatalf("size %d, %d observed, %d distinct: Quantile(%v) = %v, %v; sort says %v",
							size, obs, distinct, q, got, ok, want)
					}
				}
			}
		}
	}
}

func TestWindowQuantileAllocatesNothing(t *testing.T) {
	w := NewWindow(512)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 700; i++ {
		w.Observe(rng.ExpFloat64())
	}
	if n := testing.AllocsPerRun(100, func() { w.Quantile(0.95) }); n != 0 {
		t.Errorf("Quantile allocates %v times per call", n)
	}
}

// BenchmarkWindowQuantile is the fleet router's hedge-deadline read: the
// 0.95 quantile of a full 512-entry window, by sort and by selection.
func BenchmarkWindowQuantile(b *testing.B) {
	w := NewWindow(512)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 512; i++ {
		w.Observe(rng.ExpFloat64())
	}
	b.Run("Quantiles", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Quantiles(0.95)
		}
	})
	b.Run("Quantile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Quantile(0.95)
		}
	})
}

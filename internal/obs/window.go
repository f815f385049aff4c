package obs

import (
	"math"
	"sort"
)

// Window is a fixed ring of the most recent observations with exact
// quantiles over them — the recent-traffic view a fixed-bucket
// Histogram cannot give (/statz percentiles, the fleet router's hedge
// deadline). It is not synchronized: its owner guards it with a lock.
type Window struct {
	buf     []float64
	scratch []float64 // Quantile's selection buffer
	n       int       // filled entries (caps at len(buf))
	next    int       // next write position
}

// NewWindow returns a window over the last size observations.
func NewWindow(size int) *Window {
	return &Window{buf: make([]float64, size), scratch: make([]float64, size)}
}

// Observe records one observation, evicting the oldest when full.
func (w *Window) Observe(v float64) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Quantiles returns the nearest-rank quantile of the window for each q
// in [0, 1], or nil while the window is empty. It sorts a copy of the
// window: O(n log n) per call.
func (w *Window) Quantiles(q ...float64) []float64 {
	if w.n == 0 {
		return nil
	}
	sorted := append([]float64(nil), w.buf[:w.n]...)
	sort.Float64s(sorted)
	out := make([]float64, len(q))
	for i, qi := range q {
		out[i] = sorted[rank(qi, len(sorted))]
	}
	return out
}

// Quantile returns the nearest-rank q-quantile of the window — for a
// window holding no NaN, the value Quantiles(q) returns — and false
// while the window is empty. It
// selects over a copy in the window's own scratch buffer instead of
// sorting one: expected O(n), no allocation.
func (w *Window) Quantile(q float64) (float64, bool) {
	if w.n == 0 {
		return 0, false
	}
	a := w.scratch[:w.n]
	copy(a, w.buf)
	k := rank(q, len(a))
	// Hoare's FIND: partition around the middle element until the
	// partition holding index k is a run of pivot-equal values.
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k], true
		}
	}
	return a[k], true
}

// rank is the 0-based index of the nearest-rank q-quantile among n
// sorted values.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

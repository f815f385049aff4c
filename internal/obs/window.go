package obs

import (
	"math"
	"sort"
)

// Window is a fixed ring of the most recent observations with exact
// quantiles over them — the recent-traffic view a fixed-bucket
// Histogram cannot give (/statz percentiles, the fleet router's hedge
// deadline). It is not synchronized: the owner guards it with the lock
// it already holds around its own counters.
type Window struct {
	buf  []float64
	n    int // filled entries (caps at len(buf))
	next int // next write position
}

// NewWindow returns a window over the last size observations.
func NewWindow(size int) *Window { return &Window{buf: make([]float64, size)} }

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
		idx := int(math.Ceil(qi*float64(len(sorted)))) - 1
		out[i] = sorted[min(max(idx, 0), len(sorted)-1)]
	}
	return out
}

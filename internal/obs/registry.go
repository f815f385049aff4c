// Package obs is the repository's unified observability layer: a
// small, dependency-free metrics registry (counters, gauges,
// histograms with fixed bucket layouts), a Prometheus-text-format
// encoder and parser, and an opt-in runtime HTTP endpoint that also
// mounts net/http/pprof.
//
// Design constraints, in order:
//
//  1. Hot-path writes must stay cheap enough to sit inside the GEMM
//     kernels and the worker pool — every write is one or two atomic
//     operations, no locks, no allocation.
//  2. Reads never disturb writers: the encoder takes a point-in-time
//     snapshot by loading the atomics, so scrapes are wait-free with
//     respect to the instrumented code.
//  3. Registration is get-or-create: asking twice for the same
//     (name, labels) series returns the same handle, so packages can
//     register at init or lazily without coordination, and tests can
//     re-register freely.
//
// Every metric in the repository is documented in DESIGN.md's
// "Observability" section; new metrics must be added there.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, matching the Prometheus TYPE line.
type Kind string

// The metric kinds the registry supports.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// atomicFloat is a float64 with atomic add/set/load, stored as bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing value. The zero value is
// usable but unregistered; obtain counters from Registry.Counter.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter. Negative deltas panic: a counter that
// can decrease is a gauge.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("obs: counter add of negative delta %v", delta))
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into a fixed cumulative bucket layout
// chosen at registration. Observation is two atomic adds (bucket and
// sum) plus one for the count; the bucket search is a branch-free walk
// over at most a few dozen upper bounds.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	if i == len(h.bounds) {
		h.inf.Add(1)
	} else {
		h.counts[i].Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
// Buckets are cumulative, per the Prometheus convention, with the
// +Inf bucket equal to Count.
type HistogramSnapshot struct {
	// Bounds are the finite bucket upper bounds, ascending.
	Bounds []float64
	// Cumulative[i] counts observations <= Bounds[i].
	Cumulative []uint64
	// Sum is the sum of all observed values.
	Sum float64
	// Count is the total number of observations.
	Count uint64
}

// Snapshot atomically-enough copies the histogram: each field is read
// once; a scrape racing writers may see a sum slightly ahead of the
// buckets, which Prometheus semantics tolerate.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.bounds)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = cum + h.inf.Load()
	s.Sum = h.sum.Load()
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket
// layout by linear interpolation inside the covering bucket — the
// same estimate promQL's histogram_quantile computes. It returns the
// highest finite bound when the quantile lands in the +Inf bucket and
// 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	for i, cum := range s.Cumulative {
		if float64(cum) >= rank {
			lo, loCum := 0.0, 0.0
			if i > 0 {
				lo, loCum = s.Bounds[i-1], float64(s.Cumulative[i-1])
			}
			span := float64(cum) - loCum
			if span <= 0 {
				return s.Bounds[i]
			}
			return lo + (s.Bounds[i]-lo)*(rank-loCum)/span
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Common bucket layouts. Layouts are part of a metric's identity: the
// first registration of a histogram fixes its buckets.
var (
	// LatencyBucketsMs covers sub-millisecond kernel handoffs through
	// multi-second tail latencies.
	LatencyBucketsMs = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
	// SizeBuckets covers power-of-two batch and queue sizes.
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	// ByteBuckets covers message and frame sizes from tiny control
	// frames (heartbeats) through multi-megabyte state transfers.
	ByteBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}
)

// series is one registered (name, labels) instance.
type series struct {
	name   string
	labels []string // k, v pairs in sorted-key order
	c      *Counter
	g      *Gauge
	fn     func() float64 // gauge callback; guarded by the registry lock
	h      *Histogram
}

// family groups every series of one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	keys   []string // sorted label keys all series must use
	bounds []float64
	series map[string]*series // label-string -> series
}

// Registry holds metric families and their series. All methods are
// safe for concurrent use; the returned metric handles write without
// taking the registry lock.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	defaultRegistry     *Registry
	defaultRegistryOnce sync.Once
)

// Default returns the process-wide registry every instrumented package
// in this repository registers with.
func Default() *Registry {
	defaultRegistryOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}

// canonLabels validates k/v varargs and returns them sorted by key
// plus the map key identifying the series inside its family.
func canonLabels(name string, labels []string) (pairs []string, id string, keys []string) {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s registered with odd label list %q", name, labels))
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	pairs = make([]string, 0, len(labels))
	keys = make([]string, 0, n)
	var sb strings.Builder
	for _, i := range idx {
		k, v := labels[2*i], labels[2*i+1]
		if k == "" {
			panic(fmt.Sprintf("obs: metric %s has an empty label key", name))
		}
		pairs = append(pairs, k, v)
		keys = append(keys, k)
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(v)
		sb.WriteByte(',')
	}
	return pairs, sb.String(), keys
}

// lookup finds or creates the family and series for (name, labels),
// validating kind and label-key consistency against any existing
// registration. create runs under the write lock; replace forces it
// to run even when the series exists (callback gauges).
func (r *Registry) lookup(name, help string, kind Kind, labels []string, replace bool, create func(*series)) *series {
	if name == "" {
		panic("obs: metric with empty name")
	}
	pairs, id, keys := canonLabels(name, labels)

	if !replace {
		r.mu.RLock()
		if f, ok := r.families[name]; ok {
			if s, ok := f.series[id]; ok && f.kind == kind {
				r.mu.RUnlock()
				return s
			}
		}
		r.mu.RUnlock()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, keys: keys, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	if len(f.keys) != len(keys) || !equalStrings(f.keys, keys) {
		panic(fmt.Sprintf("obs: metric %s registered with label keys %v and %v", name, f.keys, keys))
	}
	s, ok := f.series[id]
	if !ok {
		s = &series{name: name, labels: pairs}
		create(s)
		f.series[id] = s
	} else if replace {
		create(s)
	}
	return s
}

func equalStrings(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter for (name, labels), creating and
// registering it on first use. labels are key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, KindCounter, labels, false, func(s *series) { s.c = &Counter{} })
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, KindGauge, labels, false, func(s *series) { s.g = &Gauge{} })
	if s.g == nil {
		panic(fmt.Sprintf("obs: gauge %s %v is registered as a callback gauge", name, labels))
	}
	return s.g
}

// GaugeFunc registers a callback gauge: fn is invoked at snapshot
// time. Re-registering the same (name, labels) replaces the callback,
// so a rebuilt subsystem (a reloaded model, a fresh batcher) can take
// over its series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.lookup(name, help, KindGauge, labels, true, func(s *series) { s.fn = fn; s.g = nil })
}

// Histogram returns the histogram for (name, labels) with the given
// finite bucket upper bounds (ascending; a +Inf bucket is implicit).
// The first registration fixes the layout; later calls must pass a
// layout of the same length.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	s := r.lookup(name, help, KindHistogram, labels, false, func(s *series) {
		s.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)),
		}
	})
	return s.h
}

// ReadValue returns the current value of one counter or gauge series
// (callback gauges are evaluated), and whether the series exists. It
// is the programmatic read path for control loops — the fleet
// autoscaler reads the live serve_* queue gauges through it — without
// the cost of a full Snapshot. A counter family read with only some of
// its label keys reads the sum of the series that carry those labels, so
// splitting a counter by a new label leaves readers of the total
// working.
func (r *Registry) ReadValue(name string, labels ...string) (float64, bool) {
	pairs, id, _ := canonLabels(name, labels)
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.families[name]
	if !ok {
		return 0, false
	}
	s, ok := f.series[id]
	if !ok {
		if f.kind != KindCounter || len(labels) >= 2*len(f.keys) {
			return 0, false
		}
		var sum float64
		for _, s := range f.series {
			if hasPairs(s.labels, pairs) {
				sum, ok = sum+s.c.Value(), true
			}
		}
		return sum, ok
	}
	switch {
	case s.c != nil:
		return s.c.Value(), true
	case s.fn != nil:
		return s.fn(), true
	case s.g != nil:
		return s.g.Value(), true
	}
	return 0, false
}

// hasPairs reports whether the label pairs in have include every pair
// of want.
func hasPairs(have, want []string) bool {
	for i := 0; i < len(want); i += 2 {
		found := false
		for j := 0; j < len(have); j += 2 {
			if have[j] == want[i] && have[j+1] == want[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ReadHistogram returns a point-in-time snapshot of one histogram
// series, and whether the series exists. Control loops use it to read
// latency quantiles (HistogramSnapshot.Quantile) off the live
// registry.
func (r *Registry) ReadHistogram(name string, labels ...string) (HistogramSnapshot, bool) {
	_, id, _ := canonLabels(name, labels)
	r.mu.RLock()
	f, ok := r.families[name]
	var h *Histogram
	if ok {
		if s, ok2 := f.series[id]; ok2 {
			h = s.h
		}
	}
	r.mu.RUnlock()
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}

// SeriesValue is one exported sample in a Snapshot: a counter or
// gauge value, or one histogram component (_bucket/_sum/_count).
type SeriesValue struct {
	// Name is the full sample name, including any _bucket/_sum/_count
	// suffix for histogram components.
	Name string
	// Labels are k/v pairs in sorted-key order, including the "le"
	// label of histogram buckets.
	Labels []string
	// Value is the sample value.
	Value float64
}

// Family is a snapshot of one metric family.
type Family struct {
	// Name is the family name as registered.
	Name string
	// Help is the family's help text.
	Help string
	// Kind is the family's metric type.
	Kind Kind
	// Samples are the family's flattened series values, ordered by
	// label string.
	Samples []SeriesValue
}

// Snapshot returns a consistent-enough point-in-time view of every
// registered family, sorted by name, with series sorted by label
// string — the deterministic order the encoder and golden tests rely
// on. Values are read under the registry's read lock, so GaugeFunc
// callbacks must be cheap and must not touch the registry.
func (r *Registry) Snapshot() []Family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(a, b int) bool { return fams[a].name < fams[b].name })
	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		fam := Family{Name: f.name, Help: f.help, Kind: f.kind}
		ids := make([]string, 0, len(f.series))
		for id := range f.series {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			s := f.series[id]
			switch {
			case s.c != nil:
				fam.Samples = append(fam.Samples, SeriesValue{Name: f.name, Labels: s.labels, Value: s.c.Value()})
			case s.fn != nil:
				fam.Samples = append(fam.Samples, SeriesValue{Name: f.name, Labels: s.labels, Value: s.fn()})
			case s.g != nil:
				fam.Samples = append(fam.Samples, SeriesValue{Name: f.name, Labels: s.labels, Value: s.g.Value()})
			case s.h != nil:
				snap := s.h.Snapshot()
				for i, b := range snap.Bounds {
					fam.Samples = append(fam.Samples, SeriesValue{
						Name:   f.name + "_bucket",
						Labels: append(append([]string(nil), s.labels...), "le", formatFloat(b)),
						Value:  float64(snap.Cumulative[i]),
					})
				}
				fam.Samples = append(fam.Samples,
					SeriesValue{Name: f.name + "_bucket", Labels: append(append([]string(nil), s.labels...), "le", "+Inf"), Value: float64(snap.Count)},
					SeriesValue{Name: f.name + "_sum", Labels: s.labels, Value: snap.Sum},
					SeriesValue{Name: f.name + "_count", Labels: s.labels, Value: float64(snap.Count)})
			}
		}
		out = append(out, fam)
	}
	return out
}

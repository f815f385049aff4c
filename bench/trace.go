package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// The traced phase records one span per layer boundary from the
// benchmark's own wrappers (spans inside the program are a later
// issue). Spans live in a buffer preallocated before the phase starts,
// so recording one is an atomic index bump and two clock reads, and the
// buffer is written to bench/out/trace-<workload>.json when the child
// ends.

// span is one timed interval. Parent is the index of the span that
// caused it (-1 for an op's root span); spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer is a fixed-capacity span recorder safe for concurrent use. A
// nil *tracer records nothing, which is how the measured phase runs the
// same wrappers with tracing off.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index, or -1 when tracing is off
// or the buffer is full (the drop is counted and reported).
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.epoch))}
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// recorded returns the spans written so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (children may abut or overlap one
// another; the covered part is the union of their intervals clipped to
// the parent).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(spans, kids[int32(i)], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the given spans' intervals
// inside [lo, hi].
func covered(spans []span, idx []int32, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, k := range idx {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := lo // everything before end is already counted
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfByName sums self time per span name, in milliseconds per op:
// what one op spends in each layer once its children are subtracted.
func selfByName(spans []span, ops int) map[string]float64 {
	out := map[string]float64{}
	if ops < 1 {
		return out
	}
	self := selfTimes(spans)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e6 / float64(ops)
	}
	return out
}

// checkSelfSums verifies the bookkeeping: for every op, the self times
// of its spans must add up to its root span within tol (a share). It
// returns the worst relative error seen.
func checkSelfSums(spans []span, tol float64) (worst float64, err error) {
	self := selfTimes(spans)
	sum := map[int32]int64{}
	root := map[int32]int64{}
	for i, s := range spans {
		sum[s.Op] += self[i]
		if s.Parent < 0 {
			root[s.Op] += s.End - s.Start
		}
	}
	for op, r := range root {
		if r <= 0 {
			continue
		}
		e := float64(sum[op]-r) / float64(r)
		if e < 0 {
			e = -e
		}
		if e > worst {
			worst = e
		}
		if e > tol {
			err = fmt.Errorf("trace: op %d self times sum to %d ns, root span is %d ns", op, sum[op], r)
		}
	}
	return worst, err
}

// durationsOf returns the durations (ms) of every span with the name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeTrace dumps the spans as JSON: {"workload", "dropped", "spans"}.
func writeTrace(path, workload string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int32  `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, t.dropped.Load(), t.recorded()}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

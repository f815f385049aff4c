package main

import "testing"

func TestSelfTimesNestedAndAdjacent(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},      // 0
		{Name: "forward", Start: 10, End: 50, Parent: 0, Op: 0},  // 1: nested in 0
		{Name: "conv", Start: 10, End: 30, Parent: 1, Op: 0},     // 2: nested in 1
		{Name: "bn", Start: 30, End: 45, Parent: 1, Op: 0},       // 3: abuts 2
		{Name: "backward", Start: 50, End: 90, Parent: 0, Op: 0}, // 4: abuts 1
	}
	want := []int64{
		100 - (40 + 40), // op: forward and backward cover 80
		40 - (20 + 15),  // forward: conv and bn cover 35
		20, 15, 40,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the op span 100", sum)
	}
	if worst, err := checkSelfSums(spans, 0.01); err != nil || worst != 0 {
		t.Errorf("checkSelfSums = %v, %v; want 0, nil", worst, err)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two children that overlap (a handler on another goroutine and a
	// client-side wait): the parent loses the union, not the sum.
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 7},
		{Name: "a", Start: 10, End: 60, Parent: 0, Op: 7},
		{Name: "b", Start: 40, End: 80, Parent: 0, Op: 7},
		{Name: "late", Start: 90, End: 120, Parent: 0, Op: 7}, // runs past its parent: clipped
	}
	if got := selfTimes(spans)[0]; got != 100-(70+10) {
		t.Errorf("parent self = %d, want 20", got)
	}
	// a+b+late+op self = 50+40+30+20 = 140 != 100: the check must notice.
	if _, err := checkSelfSums(spans, 0.01); err == nil {
		t.Error("checkSelfSums accepted overlapping children that do not sum to the op span")
	}
}

func TestSelfByNameAndTracer(t *testing.T) {
	tr := newTracer(3)
	root := tr.begin("op", -1, 0)
	kid := tr.begin("layer", root, 0)
	tr.end(kid)
	tr.end(root)
	tr.begin("x", -1, 1)
	if i := tr.begin("overflow", -1, 1); i != -1 || tr.dropped.Load() != 1 {
		t.Errorf("begin past capacity = %d (dropped %d), want -1 and 1 dropped", i, tr.dropped.Load())
	}
	sp := tr.recorded()
	if len(sp) != 3 || sp[1].Parent != root || sp[1].Start < sp[0].Start || sp[1].End > sp[0].End {
		t.Fatalf("recorded spans wrong: %+v", sp)
	}
	// A nil tracer records nothing and never panics.
	var off *tracer
	off.end(off.begin("op", -1, 0))
	if off.recorded() != nil {
		t.Error("nil tracer recorded spans")
	}

	by := selfByName([]span{
		{Name: "op", Start: 0, End: 4e6, Parent: -1, Op: 0},
		{Name: "layer", Start: 0, End: 1e6, Parent: 0, Op: 0},
		{Name: "op", Start: 0, End: 2e6, Parent: -1, Op: 1},
		{Name: "layer", Start: 0, End: 1e6, Parent: 2, Op: 1},
	}, 2)
	if by["layer"] != 1 || by["op"] != 2 { // ms per op
		t.Errorf("selfByName = %v, want layer 1 ms, op 2 ms", by)
	}
}

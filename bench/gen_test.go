package main

import (
	"reflect"
	"testing"
)

func TestCache50PlanExactShareAndEligibility(t *testing.T) {
	for _, ops := range []int{8400, 2100, 421, 64} {
		plan := cache50Plan(ops, 2, 5)
		if got := planOps(plan); got != ops {
			t.Fatalf("ops=%d: plan has %d ops", ops, got)
		}
		wantRepeats := 0
		for c := range plan {
			wantRepeats += len(plan[c]) / 2
		}
		repeats := 0
		for c, cl := range plan {
			lastFresh := map[int32]int{} // image -> op index of its latest fresh send
			freshSince := map[int32]int{}
			nFresh := 0
			for i, r := range cl {
				lo, hi := int32(c*cachePoolPerClient), int32((c+1)*cachePoolPerClient)
				if r.img < lo || r.img >= hi {
					t.Fatalf("client %d op %d: image %d outside its pool [%d,%d)", c, i, r.img, lo, hi)
				}
				switch r.class {
				case classFresh:
					if at, seen := lastFresh[r.img]; seen {
						// The image recurs as fresh: enough other inserts
						// must have pushed it out of the cache.
						if between := nFresh - freshSince[r.img] - 1; between < cacheWindowEntries+repeatWindow {
							t.Fatalf("client %d op %d: image %d fresh again after only %d inserts (first at op %d)", c, i, r.img, between, at)
						}
					}
					lastFresh[r.img] = i
					freshSince[r.img] = nFresh
					nFresh++
				case classRepeat:
					repeats++
					at, seen := lastFresh[r.img]
					if !seen {
						t.Fatalf("client %d op %d: repeat of image %d never sent fresh", c, i, r.img)
					}
					if i-at < repeatMinAge {
						t.Fatalf("client %d op %d: repeat of an image sent only %d ops earlier", c, i, i-at)
					}
					if behind := nFresh - freshSince[r.img]; behind > repeatWindow+repeatMinAge {
						t.Fatalf("client %d op %d: repeat reaches %d fresh images back", c, i, behind)
					}
				}
			}
		}
		if repeats != wantRepeats {
			t.Errorf("ops=%d: %d repeats planned, want exactly %d", ops, repeats, wantRepeats)
		}
		if ops%4 == 0 {
			if got := plannedRepeatShare(plan); got != 0.5 {
				t.Errorf("ops=%d: planned repeat share %v, want exactly 0.5", ops, got)
			}
		}
	}
}

func TestPlansAreSeeded(t *testing.T) {
	for name, mk := range map[string]func(seed int64) [][]plannedReq{
		"cache50": func(seed int64) [][]plannedReq { return cache50Plan(1000, 2, seed) },
		"uniform": func(seed int64) [][]plannedReq { return uniformPlan(1000, servePool, 2, seed) },
	} {
		if !reflect.DeepEqual(mk(3), mk(3)) {
			t.Errorf("%s: the same seed gave two different plans", name)
		}
		if reflect.DeepEqual(mk(3), mk(4)) {
			t.Errorf("%s: seeds 3 and 4 gave the same plan", name)
		}
	}
	a, b := newImagePool(4, 9), newImagePool(4, 9)
	if !reflect.DeepEqual(a.bodies, b.bodies) {
		t.Error("image pool: the same seed gave different request bodies")
	}
	if reflect.DeepEqual(a.images, newImagePool(4, 10).images) {
		t.Error("image pool: seeds 9 and 10 gave the same images")
	}
}

func TestTinyCache50PlanHasNoRepeatsBeforeWarmUp(t *testing.T) {
	for _, cl := range cache50Plan(2*cacheWarmOps, 2, 1) {
		for i, r := range cl {
			if r.class == classRepeat {
				t.Fatalf("op %d of a %d-op client is a repeat; the first %d must be fresh", i, len(cl), cacheWarmOps)
			}
		}
	}
}

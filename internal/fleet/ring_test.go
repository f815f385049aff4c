package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("model-%d", i)
	}
	return keys
}

func TestRingJoinMovesOnlyNewOwnersKeys(t *testing.T) {
	r := NewRing()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	keys := ringKeys(2000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.owner(k)
	}

	r.Add("w4")
	moved := 0
	for _, k := range keys {
		now := r.owner(k)
		if now != before[k] {
			if now != "w4" {
				t.Fatalf("key %s moved %s -> %s on an unrelated join", k, before[k], now)
			}
			moved++
		}
	}
	// Ideal movement is 1/5 of keys; vnodes keep it near that. Far more
	// means the hash is clumping, none at all means the join is inert.
	if moved == 0 || moved > len(keys)*2/5 {
		t.Errorf("join moved %d/%d keys, want roughly %d", moved, len(keys), len(keys)/5)
	}
}

func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	r := NewRing()
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	keys := ringKeys(2000)
	before := make(map[string]string, len(keys))
	owned := 0
	for _, k := range keys {
		before[k] = r.owner(k)
		if before[k] == "w2" {
			owned++
		}
	}

	r.Remove("w2")
	moved := 0
	for _, k := range keys {
		now := r.owner(k)
		if now == "w2" {
			t.Fatalf("key %s still owned by removed member", k)
		}
		if now != before[k] {
			if before[k] != "w2" {
				t.Fatalf("key %s moved %s -> %s though its owner stayed", k, before[k], now)
			}
			moved++
		}
	}
	if moved != owned {
		t.Errorf("leave moved %d keys, want exactly the %d the departed member owned", moved, owned)
	}
}

func TestRingOrderedDistinctAndStable(t *testing.T) {
	r := NewRing()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	for _, k := range ringKeys(100) {
		set := r.Ordered(k, 3)
		if len(set) != 3 {
			t.Fatalf("Ordered(%q, 3) = %v", k, set)
		}
		seen := map[string]bool{}
		for _, m := range set {
			if seen[m] {
				t.Fatalf("Ordered(%q) repeats member %s: %v", k, m, set)
			}
			seen[m] = true
		}
		if again := r.Ordered(k, 3); fmt.Sprint(again) != fmt.Sprint(set) {
			t.Fatalf("Ordered(%q) unstable: %v then %v", k, set, again)
		}
		if r.owner(k) != set[0] {
			t.Fatalf("owner(%q) = %s, Ordered head %s", k, r.owner(k), set[0])
		}
	}
	// Asking for more members than exist returns them all.
	if set := r.Ordered("x", 10); len(set) != 4 {
		t.Fatalf("Ordered(x, 10) = %v, want all 4 members", set)
	}
}

func TestRingEmptyAndSpread(t *testing.T) {
	r := NewRing()
	if r.owner("k") != "" || r.Ordered("k", 2) != nil {
		t.Fatal("empty ring must return no owners")
	}
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	counts := map[string]int{}
	keys := ringKeys(4000)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	for m, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys; split too uneven: %v", m, 100*frac, counts)
		}
	}
}

// owner returns key's primary member, or "" for an empty ring.
func (r *Ring) owner(key string) string {
	o := r.Ordered(key, 1)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

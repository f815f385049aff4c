package fleet

import "testing"

func TestScaleDecision(t *testing.T) {
	cases := []struct {
		name                              string
		depth, capacity, live, idle, tick int
		want                              int
	}{
		{"idle but not long enough", 0, 32, 2, 2, 3, 0},
		{"idle long enough", 0, 32, 2, 2, 8, -1},
		{"idle at floor", 0, 32, 1, 1, 50, 0},
		{"queue below threshold", 10, 32, 2, 0, 0, 0},
		{"queue at threshold", 16, 32, 2, 0, 0, 1},
		{"queue above threshold", 30, 32, 2, 0, 0, 1},
		{"empty queue, replica busy", 0, 32, 2, 1, 20, 0},
		{"no capacity gauge yet", 5, 0, 1, 0, 0, 0},
	}
	for _, tc := range cases {
		if got := scaleDecision(tc.depth, tc.capacity, tc.live, tc.idle, tc.tick); got != tc.want {
			t.Errorf("%s: scaleDecision(depth=%d cap=%d live=%d idle=%d ticks=%d) = %+d, want %+d",
				tc.name, tc.depth, tc.capacity, tc.live, tc.idle, tc.tick, got, tc.want)
		}
	}
}

// TestScaleDecisionUncappedDefaults: the rule itself has no replica
// cap — the batcher pool's runner cap is the backstop — so
// under pressure it says up however many replicas are live.
func TestScaleDecisionUncappedDefaults(t *testing.T) {
	if got := scaleDecision(100, 32, 50, 0, 0); got != 1 {
		t.Fatalf("uncapped pressure decision = %+d, want +1", got)
	}
}

package nn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBNSyncGroupConcurrentAbort drives N participants through the
// full three-reduction step (moments, squares, grads) while K of them
// panic with a "real" failure at randomized (seeded) phases. The
// harness mirrors the sharded trainer: a real panic triggers
// g.Abort(), and every surviving participant must unwind with
// ErrSyncAborted instead of deadlocking in a barrier. Afterwards the
// group must be reusable: Configure clears the poison and a clean
// all-reduce completes.
func TestBNSyncGroupConcurrentAbort(t *testing.T) {
	cases := []struct {
		parts, kill int
		seed        int64
	}{
		{parts: 2, kill: 1, seed: 1},
		{parts: 3, kill: 1, seed: 2},
		{parts: 3, kill: 2, seed: 3},
		{parts: 4, kill: 1, seed: 4},
		{parts: 4, kill: 3, seed: 5},
		{parts: 5, kill: 2, seed: 6},
		{parts: 5, kill: 4, seed: 7},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("N%d_K%d_seed%d", tc.parts, tc.kill, tc.seed), func(t *testing.T) {
			const c = 3
			g := NewBNSyncGroup(c)
			g.Configure(tc.parts)

			// Choose which participants fail and at which of the four
			// checkpoints (0 = before any reduction .. 3 = before grads).
			rng := rand.New(rand.NewSource(tc.seed))
			failPhase := make([]int, tc.parts)
			for p := range failPhase {
				failPhase[p] = -1
			}
			for _, p := range rng.Perm(tc.parts)[:tc.kill] {
				failPhase[p] = rng.Intn(4)
			}

			errReal := errors.New("injected shard failure")
			var mu sync.Mutex
			var aborted, failed int

			run := func(idx int) {
				defer func() {
					r := recover()
					mu.Lock()
					defer mu.Unlock()
					switch {
					case r == nil:
						// A participant may finish cleanly if every
						// failure lands after its last barrier.
					case errors.Is(toErr(r), ErrSyncAborted):
						aborted++
					case errors.Is(toErr(r), errReal):
						failed++
						g.Abort()
					default:
						t.Errorf("participant %d: unexpected panic %v", idx, r)
					}
				}()
				sum := []float64{1, 2, 3}
				maybeFail(failPhase[idx], 0, errReal)
				g.Reduce(idx, append(sum, 10))
				maybeFail(failPhase[idx], 1, errReal)
				g.Reduce(idx, sum)
				maybeFail(failPhase[idx], 2, errReal)
				maybeFail(failPhase[idx], 3, errReal)
				g.Reduce(idx, append(sum, sum...))
			}

			done := make(chan struct{})
			go func() {
				var wg sync.WaitGroup
				wg.Add(tc.parts)
				for p := 0; p < tc.parts; p++ {
					p := p
					go func() { defer wg.Done(); run(p) }()
				}
				wg.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("deadlock: participants did not unwind after abort")
			}

			// At least one scheduled failure fires for real; the rest
			// may be beaten to their checkpoint by a sibling's abort
			// and unwind with ErrSyncAborted instead.
			if failed < 1 || failed > tc.kill {
				t.Fatalf("real panics: got %d, want 1..%d", failed, tc.kill)
			}
			if failed+aborted > tc.parts {
				t.Fatalf("more outcomes (%d real + %d aborted) than participants", failed, aborted)
			}

			// The group must be reusable after an abort: Configure
			// clears the poison and a clean step completes with the
			// correct ascending-order fold.
			g.Configure(tc.parts)
			var wg sync.WaitGroup
			sums := make([][]float64, tc.parts)
			wg.Add(tc.parts)
			for p := 0; p < tc.parts; p++ {
				p := p
				go func() {
					defer wg.Done()
					out := g.Reduce(p, []float64{float64(p + 1), 0, 0, 5})
					if total := out[3]; total != float64(5*tc.parts) {
						t.Errorf("participant %d: total count %v, want %d", p, total, 5*tc.parts)
					}
					sums[p] = append([]float64(nil), out...)
				}()
			}
			waitOrFatal(t, &wg)
			want := float64(tc.parts*(tc.parts+1)) / 2
			for p, s := range sums {
				if s[0] != want {
					t.Errorf("participant %d: folded sum %v, want %v", p, s[0], want)
				}
			}
		})
	}
}

// toErr converts a recovered panic value to an error for errors.Is.
func toErr(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

// maybeFail panics with err when the participant's failure checkpoint
// matches phase.
func maybeFail(fail, phase int, err error) {
	if fail == phase {
		panic(err)
	}
}

// waitOrFatal waits for wg with a deadlock timeout.
func waitOrFatal(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock in clean reduction after Configure")
	}
}

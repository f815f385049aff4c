package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

// newSyncPair builds two BatchNorm2D layers with identical non-trivial
// affine parameters and running state, attached to one sync group.
func newSyncPair(t *testing.T, c int) (ref, a, b *BatchNorm2D, g *BNSyncGroup) {
	t.Helper()
	mk := func() *BatchNorm2D {
		bn := NewBatchNorm2D("bn", c)
		for i := 0; i < c; i++ {
			bn.Gamma.Value.Data[i] = 1 + 0.1*float32(i)
			bn.Beta.Value.Data[i] = 0.05 * float32(i)
			bn.RunningMean.Data[i] = 0.2 * float32(i)
			bn.RunningVar.Data[i] = 1 + 0.3*float32(i)
		}
		return bn
	}
	ref, a, b = mk(), mk(), mk()
	g = NewBNSyncGroup(c)
	a.SetSyncGroup(g, 0)
	b.SetSyncGroup(g, 1)
	return ref, a, b, g
}

// TestSyncBNMatchesFullBatch checks the sync-BN invariant the sharded
// trainer relies on: two participants each normalizing half the batch
// produce the same outputs, input gradients, summed affine gradients,
// and running statistics as one layer seeing the whole batch.
func TestSyncBNMatchesFullBatch(t *testing.T) {
	const c = 3
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(4, c, 5, 5)
	x.RandNormal(rng, 1)
	dy := tensor.New(4, c, 5, 5)
	dy.RandNormal(rng, 1)

	ref, a, b, g := newSyncPair(t, c)
	refOut := ref.Forward(x, true)
	refDx := ref.Backward(dy)

	g.Configure(2)
	halves := []struct {
		bn     *BatchNorm2D
		lo, hi int
	}{{a, 0, 2}, {b, 2, 4}}
	out := make([]*tensor.Tensor, 2)
	dx := make([]*tensor.Tensor, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := range halves {
		go func(i int) {
			defer wg.Done()
			h := halves[i]
			out[i] = h.bn.Forward(tensor.ViewRows(x, h.lo, h.hi), true)
			dx[i] = h.bn.Backward(tensor.ViewRows(dy, h.lo, h.hi))
		}(i)
	}
	wg.Wait()

	const tol = 1e-5
	checkClose := func(name string, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
		}
		for i := range got {
			if d := math.Abs(float64(got[i] - want[i])); d > tol {
				t.Fatalf("%s[%d]: %g vs %g (|d|=%g)", name, i, got[i], want[i], d)
			}
		}
	}
	checkClose("out", append(append([]float32(nil), out[0].Data...), out[1].Data...), refOut.Data)
	checkClose("dx", append(append([]float32(nil), dx[0].Data...), dx[1].Data...), refDx.Data)
	sumGrad := func(p0, p1 *Param) []float32 {
		s := make([]float32, len(p0.Grad.Data))
		for i := range s {
			s[i] = p0.Grad.Data[i] + p1.Grad.Data[i]
		}
		return s
	}
	checkClose("beta grad", sumGrad(a.Beta, b.Beta), ref.Beta.Grad.Data)
	checkClose("gamma grad", sumGrad(a.Gamma, b.Gamma), ref.Gamma.Grad.Data)
	checkClose("running mean (a)", a.RunningMean.Data, ref.RunningMean.Data)
	checkClose("running var (a)", a.RunningVar.Data, ref.RunningVar.Data)
	checkClose("running mean (b)", b.RunningMean.Data, ref.RunningMean.Data)
	checkClose("running var (b)", b.RunningVar.Data, ref.RunningVar.Data)
}

// TestSyncBNSingleParticipantBitIdentical checks the degenerate case:
// a group of one must reproduce the legacy training forward/backward
// bit for bit.
func TestSyncBNSingleParticipantBitIdentical(t *testing.T) {
	const c = 2
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(3, c, 4, 4)
	x.RandNormal(rng, 1)
	dy := tensor.New(3, c, 4, 4)
	dy.RandNormal(rng, 1)

	ref, a, _, g := newSyncPair(t, c)
	refOut := ref.Forward(x, true).Clone()
	refDx := ref.Backward(dy).Clone()

	g.Configure(1)
	out := a.Forward(x, true)
	dx := a.Backward(dy)
	for i := range refOut.Data {
		if out.Data[i] != refOut.Data[i] {
			t.Fatalf("out[%d]: %g != %g", i, out.Data[i], refOut.Data[i])
		}
	}
	for i := range refDx.Data {
		if dx.Data[i] != refDx.Data[i] {
			t.Fatalf("dx[%d]: %g != %g", i, dx.Data[i], refDx.Data[i])
		}
	}
	for i := range ref.RunningMean.Data {
		if a.RunningMean.Data[i] != ref.RunningMean.Data[i] || a.RunningVar.Data[i] != ref.RunningVar.Data[i] {
			t.Fatalf("running stats diverged at channel %d", i)
		}
	}
}

// TestBNSyncAbort checks the poison path: an aborted barrier panics
// every waiter with ErrSyncAborted instead of deadlocking, and the
// next Configure clears the abort.
func TestBNSyncAbort(t *testing.T) {
	g := NewBNSyncGroup(2)
	g.Configure(2)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		g.bar.wait()
	}()
	g.Abort()
	if r := <-done; r != ErrSyncAborted {
		t.Fatalf("waiter recovered %v, want ErrSyncAborted", r)
	}
	// A poisoned barrier keeps rejecting new waiters until reconfigured.
	func() {
		defer func() {
			if r := recover(); r != ErrSyncAborted {
				t.Fatalf("post-abort wait recovered %v, want ErrSyncAborted", r)
			}
		}()
		g.bar.wait()
	}()
	g.Configure(1)
	g.bar.wait() // single participant: returns immediately, no panic
}

// TestBNSyncSlotsAlternate holds one participant back between its
// barrier and its fold of reduction k while the other finishes k and
// publishes k+1. The late fold must still see reduction k's vectors:
// consecutive reductions publish into different slot sets.
func TestBNSyncSlotsAlternate(t *testing.T) {
	g := NewBNSyncGroup(2)
	g.Configure(2)
	k0, k1 := []float64{1, 2, 3}, []float64{10, 20, 30}
	k0late, k1late := []float64{0.5, 0.25, 4}, []float64{5, 6, 7}
	// Participant 1 publishes reduction k and passes its barrier, but
	// does not fold.
	held := make(chan []float64)
	go func() {
		set := g.publish(1, k0late)
		g.bar.wait()
		held <- set
	}()
	if got := g.Reduce(0, k0); got[0] != 1.5 || got[1] != 2.25 || got[2] != 7 {
		t.Fatalf("participant 0 folded reduction k to %v", got)
	}
	set := <-held
	// Participant 0 publishes reduction k+1 and waits at its barrier.
	next := make(chan []float64)
	go func() { next <- append([]float64(nil), g.Reduce(0, k1)...) }()
	for arrived := 0; arrived == 0; {
		g.bar.mu.Lock()
		arrived = g.bar.arrived
		g.bar.mu.Unlock()
	}
	// Now participant 1 folds reduction k.
	if got := g.fold(1, set, 3); got[0] != 1.5 || got[1] != 2.25 || got[2] != 7 {
		t.Fatalf("late fold of reduction k read %v: reduction k+1 overwrote its slots", got)
	}
	got1 := g.Reduce(1, k1late)
	if got0 := <-next; got0[0] != 15 || got0[1] != 26 || got0[2] != 37 || got1[0] != 15 || got1[2] != 37 {
		t.Fatalf("reduction k+1 folded to %v and %v", got0, got1)
	}
}

package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

// newSyncPair builds three BatchNorm2D layers with identical non-trivial
// affine parameters and running state, the last two attached to one
// sync group.
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
	a.SetSyncGroup(g)
	b.SetSyncGroup(g)
	return ref, a, b, g
}

// sliceBN cuts bn's training passes at the image bounds, into the
// plan's slices from first on, and returns the slices' gradient
// buffers (Gamma's, then Beta's).
func sliceBN(bn *BatchNorm2D, first int, bounds ...int) [][]float32 {
	grads := make([][]float32, len(bounds)-1)
	for s := range grads {
		grads[s] = make([]float32, 2*bn.C)
	}
	SetSlices(bn.Params(), bounds, first, grads)
	return grads
}

func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: %g vs %g", what, i, got[i], want[i])
		}
	}
}

// TestSyncBNMatchesSlicedBatch checks the invariant the sharded trainer
// relies on: two replicas each holding one slice of a two-slice plan
// produce, through their sync group, the same outputs, input
// gradients, per-slice affine gradients and running statistics, bit
// for bit, as one layer holding both slices and folding them alone.
func TestSyncBNMatchesSlicedBatch(t *testing.T) {
	const c = 3
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(5, c, 5, 5)
	x.RandNormal(rng, 1)
	dy := tensor.New(5, c, 5, 5)
	dy.RandNormal(rng, 1)

	ref, a, b, g := newSyncPair(t, c)
	refGrads := sliceBN(ref, 0, 0, 2, 5)
	refOut := ref.Forward(x, true)
	refDx := ref.Backward(dy)

	g.Configure(2)
	halves := []struct {
		bn     *BatchNorm2D
		lo, hi int
	}{{a, 0, 2}, {b, 2, 5}}
	out := make([]*tensor.Tensor, 2)
	dx := make([]*tensor.Tensor, 2)
	grads := make([][]float32, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := range halves {
		h := halves[i]
		grads[i] = sliceBN(h.bn, i, h.lo, h.hi)[0]
		go func(i int) {
			defer wg.Done()
			out[i] = h.bn.Forward(tensor.ViewRows(x, h.lo, h.hi), true)
			dx[i] = h.bn.Backward(tensor.ViewRows(dy, h.lo, h.hi))
		}(i)
	}
	wg.Wait()

	requireBits(t, "out", append(append([]float32(nil), out[0].Data...), out[1].Data...), refOut.Data)
	requireBits(t, "dx", append(append([]float32(nil), dx[0].Data...), dx[1].Data...), refDx.Data)
	for s := range grads {
		requireBits(t, "slice grads", grads[s], refGrads[s])
	}
	for _, bn := range []*BatchNorm2D{a, b} {
		requireBits(t, "running mean", bn.RunningMean.Data, ref.RunningMean.Data)
		requireBits(t, "running var", bn.RunningVar.Data, ref.RunningVar.Data)
	}
}

// TestSyncBNSingleParticipantBitIdentical checks the degenerate case:
// a group of one slice must reproduce the plain training
// forward/backward bit for bit.
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
	requireBits(t, "out", out.Data, refOut.Data)
	requireBits(t, "dx", dx.Data, refDx.Data)
	requireBits(t, "gamma grad", a.Gamma.Grad.Data, ref.Gamma.Grad.Data)
	requireBits(t, "beta grad", a.Beta.Grad.Data, ref.Beta.Grad.Data)
	requireBits(t, "running mean", a.RunningMean.Data, ref.RunningMean.Data)
	requireBits(t, "running var", a.RunningVar.Data, ref.RunningVar.Data)
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
		g.bar.wait(1, func() {})
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
		g.bar.wait(1, func() {})
	}()
	g.Configure(1)
	g.bar.wait(1, func() {}) // one slice: returns immediately, no panic
}

// TestBNSyncSlotsAlternate holds the run of slice 1 back between its
// barrier and its read of fold k while the run of slice 0 finishes k
// and publishes k+1. The late read must still see fold k: consecutive
// reductions publish into different slot sets.
func TestBNSyncSlotsAlternate(t *testing.T) {
	g := NewBNSyncGroup(2)
	g.Configure(2)
	k0, k1 := []float64{1, 2, 3}, []float64{10, 20, 30}
	k0late, k1late := []float64{0.5, 0.25, 4}, []float64{5, 6, 7}
	// Slice 1 publishes reduction k and passes its barrier, but does
	// not read the fold.
	held := make(chan []float64)
	go func() {
		set, w := g.publish(1, 1, k0late)
		g.bar.wait(1, func() { foldSlices(set[:2*w], w) })
		held <- set[:w]
	}()
	if got := g.Reduce(0, 1, k0); got[0] != 1.5 || got[1] != 2.25 || got[2] != 7 {
		t.Fatalf("slice 0 read fold k as %v", got)
	}
	fold := <-held
	// Slice 0 publishes reduction k+1 and waits at its barrier.
	next := make(chan []float64)
	go func() { next <- append([]float64(nil), g.Reduce(0, 1, k1)...) }()
	for arrived := 0; arrived == 0; {
		g.bar.mu.Lock()
		arrived = g.bar.arrived
		g.bar.mu.Unlock()
	}
	// Now slice 1 reads fold k.
	if fold[0] != 1.5 || fold[1] != 2.25 || fold[2] != 7 {
		t.Fatalf("late read of fold k saw %v: reduction k+1 overwrote its slots", fold)
	}
	got1 := g.Reduce(1, 1, k1late)
	if got0 := <-next; got0[0] != 15 || got0[1] != 26 || got0[2] != 37 || got1[0] != 15 || got1[2] != 37 {
		t.Fatalf("reduction k+1 folded to %v and %v", got0, got1)
	}
}

// TestFoldSlicesTree pins foldSlices' order: the stride-doubling tree
// ((v0+v1)+(v2+v3))+v4, which differs in float64 from the left-to-right
// sum of these vectors.
func TestFoldSlicesTree(t *testing.T) {
	v := []float64{1e16, 1, -1e16, 1, 3}
	want := ((v[0] + v[1]) + (v[2] + v[3])) + v[4]
	if seq := (((v[0] + v[1]) + v[2]) + v[3]) + v[4]; seq == want {
		t.Fatal("the vectors no longer tell the tree from the sequence")
	}
	if got := foldSlices(append([]float64(nil), v...), 1); got[0] != want || len(got) != 1 {
		t.Fatalf("foldSlices = %v, want [%v]", got, want)
	}
}

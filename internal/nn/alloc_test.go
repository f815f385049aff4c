package nn

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/tensor"
)

// TestApproxConvStepNoSteadyStateAllocs pins the conv layer's
// steady-state step at zero heap allocations. Every per-step buffer
// lives in the layer's arena and every pool dispatch goes through a
// RangeRunner held in scratch state (kernels_runners.go), so after the
// first step has grown the buffers, Forward+Backward must not allocate
// at all — on the pooled dispatch path too: TestMain gives the shared
// pool at least two workers, the pool recycles its job headers, and
// the test checks that the measured steps really fanned jobs out.
func TestApproxConvStepNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact count holds only without -race")
	}
	// Every backward label of the ladder, each on an op and a gradient
	// density that reach it by automatic dispatch.
	for _, label := range bwdLabels() {
		op, sparse := bwdExemplar(t, label)
		t.Run(label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			layer := NewApproxConv2D("alloc", 16, 32, 3, 1, 1, op, rng)
			x := tensor.New(4, 16, 16, 16)
			x.RandNormal(rng, 1)
			y := layer.Forward(x, true)
			dy := tensor.New(y.Shape...)
			dy.RandNormal(rng, 1)
			if sparse {
				for i := range dy.Data {
					if i%8 != 0 {
						dy.Data[i] = 0
					}
				}
			}
			if got := op.BackwardPath(dy.Data); got != label {
				t.Fatalf("backward dispatches to %q", got)
			}
			// Warm the arena, the op's padded tables, and the tile pool.
			for i := 0; i < 3; i++ {
				layer.Forward(x, true)
				layer.Backward(dy)
			}
			pooled := func() float64 {
				v, _ := obs.Default().ReadValue("tensor_pool_jobs_total", "mode", "pooled")
				return v
			}
			before := pooled()
			allocs := testing.AllocsPerRun(10, func() {
				layer.Forward(x, true)
				layer.Backward(dy)
			})
			if allocs != 0 {
				t.Fatalf("steady-state conv step allocates %.1f times per step, want 0", allocs)
			}
			if pooled() == before {
				t.Fatal("no job was dispatched to the worker pool; the 0-alloc claim covered only the inline path")
			}
		})
	}
}

// retainedBuffers reports every distinct slice buffer reachable from
// the struct v — through nested structs and *tensor.Tensor fields, not
// through other pointers (the shared Op, the parameters) — as (element
// kind, capacity). Runner structs alias the buffers they last worked
// on; a buffer counts once.
func retainedBuffers(v reflect.Value, seen map[uintptr]bool, visit func(elem reflect.Kind, n int)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			retainedBuffers(v.Field(i), seen, visit)
		}
	case reflect.Ptr:
		if !v.IsNil() && v.Type().Elem() == reflect.TypeOf(tensor.Tensor{}) {
			retainedBuffers(v.Elem(), seen, visit)
		}
	case reflect.Slice:
		if v.Cap() > 0 && !seen[v.Pointer()] {
			seen[v.Pointer()] = true
			visit(v.Type().Elem().Kind(), v.Cap())
		}
	}
}

// TestApproxConvRetainsOnePatchMatrixEach pins the k-major layer's
// memory shape: after training steps on every backward tier it holds
// exactly one rows x k byte matrix (xT) and one rows x k float32 matrix
// (dxT) — no row-major twin, no transpose scratch — so the footprint
// the k-major path bought cannot silently come back.
func TestApproxConvRetainsOnePatchMatrixEach(t *testing.T) {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	rng := rand.New(rand.NewSource(7))
	x := tensor.New(4, 16, 16, 16)
	x.RandNormal(rng, 1)
	const patch = 4 * 16 * 16 * 16 * 3 * 3 // rows * k
	for _, op := range []*Op{STEOp(e.Mult), DifferenceOp(e.Mult, 6)} {
		layer := NewApproxConv2D("mem", 16, 32, 3, 1, 1, op, rng)
		dy := tensor.New(layer.Forward(x, true).Shape...)
		dy.RandNormal(rng, 1)
		layer.Backward(dy)
		for i := range dy.Data { // and a step on the small tier
			if i%8 != 0 {
				dy.Data[i] = 0
			}
		}
		layer.Forward(x, true)
		layer.Backward(dy)
		var bytesM, floatM int
		retainedBuffers(reflect.ValueOf(layer).Elem(), map[uintptr]bool{}, func(elem reflect.Kind, n int) {
			switch {
			case n >= patch && elem == reflect.Uint8:
				bytesM++
			case n >= patch && elem == reflect.Float32:
				floatM++
			case n >= patch:
				t.Errorf("%s: retains a %v buffer of %d elements", op.Label, elem, n)
			}
		})
		if bytesM != 1 || floatM != 1 {
			t.Errorf("%s: retains %d byte and %d float32 buffers of rows*k elements, want 1 (xT) and 1 (dxT)",
				op.Label, bytesM, floatM)
		}
	}
}

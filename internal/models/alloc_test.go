package models

import (
	"runtime"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// TestModelStepSteadyStateAllocs is the whole-model allocation budget:
// once two steps have sized every layer-owned buffer, one training step
// (ZeroGrads, Forward, loss, Backward) of the benchmark's reduced-scale
// models — 16x16 inputs, eighth width, a batch of 32 — allocates only
// what the float head, the loss gradient and the Params() walks cost:
// 28.6 kB on lenet (three float Linear layers), 15.5 kB on vgg11,
// 28.1 kB on resnet18. Before the glue layers owned their buffers the
// same step allocated 647 kB, 3.93 MB and 14.1 MB (4.4 %, 0.4 % and
// 0.2 % remain). The budgets are about twice the measured bytes.
func TestModelStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts hold only without -race")
	}
	op := nn.STEOp(appmult.NewAccurate(7))
	for _, tc := range []struct {
		kind   string
		budget uint64 // bytes per step
	}{
		{"lenet", 56 << 10},
		{"vgg11", 32 << 10},
		{"resnet18", 56 << 10},
	} {
		m, err := ByKind(tc.kind, Config{Classes: 10, InputHW: 16, Width: 0.125, Conv: ApproxConv(op), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(32, 3, 16, 16)
		for i := range x.Data {
			x.Data[i] = float32(i%17)/17 - 0.5
		}
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = i % 10
		}
		step := func() {
			nn.ZeroGrads(m)
			_, grad := nn.SoftmaxCrossEntropy(m.Forward(x, true), labels)
			m.Backward(grad)
		}
		// A collection now, none while measuring (a step allocates a few
		// kB): the kernels' tile pool is refilled by the warm-up steps and
		// not emptied again.
		runtime.GC()
		step()
		step()
		const steps = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		perStep := (after.TotalAlloc - before.TotalAlloc) / steps
		t.Logf("%s: %d bytes, %d allocations per steady-state step", tc.kind, perStep, (after.Mallocs-before.Mallocs)/steps)
		if perStep > tc.budget {
			t.Errorf("%s: steady-state step allocates %d bytes, budget %d", tc.kind, perStep, tc.budget)
		}
	}
}

// TestPredictSteadyStateAllocs: a served request allocates nothing in
// the model. Once two calls have sized every layer-owned buffer —
// including what the approximate layers keep per weight version and the
// skinny forward row's transposed accumulator and coefficient stream —
// Predict on the benchmark's reduced-scale models performs zero
// allocations, at the batch of a fleet cache miss (1) and of a busy
// replica (8), at GOMAXPROCS=1.
func TestPredictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, _ := appmult.Lookup("mul7u_rm6")
	op := nn.STEOp(e.Mult)
	for _, kind := range []string{"vgg11", "resnet18", "lenet"} {
		m, err := ByKind(kind, Config{Classes: 10, InputHW: 16, Width: 0.125, Conv: ApproxConv(op), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 8} {
			x := tensor.New(n, 3, 16, 16)
			for i := range x.Data {
				x.Data[i] = float32(i%17)/17 - 0.5
			}
			m.Predict(x)
			m.Predict(x)
			if allocs := testing.AllocsPerRun(10, func() { m.Predict(x) }); allocs != 0 {
				t.Errorf("%s batch %d: %v allocations per steady-state Predict, want 0", kind, n, allocs)
			}
		}
	}
}

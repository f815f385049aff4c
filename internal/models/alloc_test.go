package models

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// TestModelStepSteadyStateAllocs is the whole-model allocation budget:
// once two steps have sized every layer-owned buffer, one training step
// (ZeroGrads, Forward, loss, Backward) of the benchmark's reduced-scale
// models — 16x16 inputs, eighth width, a batch of 32 — allocates only
// what the loss gradient and the Params() walks cost: the float head
// runs on Conv2D's passes and allocates nothing. Measured: 1.8 kB in 17
// allocations on lenet (three float Linear layers), 2.8 kB in 31 on
// vgg11, 5.8 kB in 96 on resnet18; while the heads ran tensor's
// allocating GEMMs, 25.4 kB, 15.1 kB and 18.0 kB, and before the glue
// layers owned their buffers 647 kB, 3.93 MB and 14.1 MB. The budgets
// are about twice the measured bytes.
func TestModelStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts hold only without -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op := nn.STEOp(appmult.NewAccurate(7))
	for _, tc := range []struct {
		kind   string
		budget uint64 // bytes per step
	}{
		{"lenet", 4 << 10},
		{"vgg11", 6 << 10},
		{"resnet18", 12 << 10},
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
		// A collection now, none until the measurement is over. The
		// least of three windows counts, so a one-off allocation outside
		// the model does not read as a per-step cost. (The kernels'
		// forward tiles no longer cause one: forwardT sizes every tile a
		// GEMM can run on before its row blocks start.)
		runtime.GC()
		step()
		step()
		const steps = 5
		perStep, mallocs := uint64(math.MaxUint64), uint64(0)
		for w := 0; w < 3; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < steps; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / steps; b < perStep {
				perStep, mallocs = b, (after.Mallocs-before.Mallocs)/steps
			}
		}
		t.Logf("%s: %d bytes, %d allocations per steady-state step", tc.kind, perStep, mallocs)
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

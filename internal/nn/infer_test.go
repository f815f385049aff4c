package nn

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/tensor"
)

// inferModel builds a model exercising every Inferer implementation:
// approximate and float convolutions, batch norm, ReLU, max pooling, a
// residual block, global average pooling, and both linear layers.
func inferModel(op *Op, perChannel bool, rng *rand.Rand) *Sequential {
	c1 := NewApproxConv2D("conv1", 3, 8, 3, 1, 1, op, rng)
	c1.PerChannel = perChannel
	res := NewResidual("res", NewSequential("res.main",
		NewApproxConv2D("res.conv", 8, 8, 3, 1, 1, op, rng),
		NewBatchNorm2D("res.bn", 8),
	), nil)
	return NewSequential("infer-model",
		c1,
		NewBatchNorm2D("bn1", 8),
		NewReLU(),
		NewMaxPool2D(2, 2),
		res,
		NewReLU(),
		NewConv2D("conv2", 8, 6, 3, 1, 1, rng),
		NewGlobalAvgPool(),
		NewFlatten(),
		NewApproxLinear("fc1", 6, 12, op, rng),
		NewReLU(),
		NewLinear("fc2", 12, 5, rng),
	)
}

// trainSteps runs a few forward/backward passes so batch-norm running
// statistics and observers hold realistic, non-initial state.
func trainSteps(m *Sequential, rng *rand.Rand, steps int) {
	for s := 0; s < steps; s++ {
		x := tensor.New(4, 3, 8, 8)
		x.RandNormal(rng, 1)
		labels := make([]int, 4)
		for i := range labels {
			labels[i] = rng.Intn(5)
		}
		ZeroGrads(m)
		out := m.Forward(x, true)
		_, grad := SoftmaxCrossEntropy(out, labels)
		m.Backward(grad)
	}
}

// TestPredictMatchesForward is the inference-path contract: Predict
// must produce bit-identical outputs to Forward(x, false) on the same
// weights and input.
func TestPredictMatchesForward(t *testing.T) {
	op := STEOp(appmult.NewAccurate(7))
	for _, tc := range []struct {
		name       string
		perChannel bool
	}{
		{"per-tensor", false},
		{"per-channel", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			m := inferModel(op, tc.perChannel, rng)
			trainSteps(m, rng, 3)

			for trial := 0; trial < 3; trial++ {
				x := tensor.New(5, 3, 8, 8)
				x.RandNormal(rng, 1)
				// Forward and Predict share the layers' scratch arenas, so
				// the reference output must be copied out first.
				want := m.Forward(x.Clone(), false).Clone()
				got := m.Predict(x)
				if len(got.Data) != len(want.Data) {
					t.Fatalf("trial %d: output sizes differ: %v vs %v", trial, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("trial %d: Predict diverges from Forward at %d: %v vs %v (bits %#x vs %#x)",
							trial, i, got.Data[i], want.Data[i],
							math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			}
		})
	}
}

// TestPredictFreshModel covers the unseen-observer path: a model that
// has never trained must still agree with Forward(x, false), which
// calibrates from the first batch in both paths.
func TestPredictFreshModel(t *testing.T) {
	op := STEOp(appmult.NewAccurate(6))
	rng := rand.New(rand.NewSource(3))
	mF := inferModel(op, false, rand.New(rand.NewSource(7)))
	mP := inferModel(op, false, rand.New(rand.NewSource(7)))
	x := tensor.New(2, 3, 8, 8)
	x.RandNormal(rng, 1)
	// Separate identically initialized models: the first call observes
	// activation ranges, so running Forward then Predict on one model
	// would let the first call calibrate for the second.
	want := mF.Forward(x.Clone(), false)
	got := mP.Predict(x.Clone())
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("fresh-model Predict diverges at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// approxScratch sums the buffers the approximate layers of m hold on to
// between calls: quantized operands, the level patch matrix and the
// clip flags.
func approxScratch(m *Sequential) (total, clipFlags int) {
	var walk func(l Layer)
	walk = func(l Layer) {
		switch v := l.(type) {
		case *Sequential:
			for _, c := range v.Layers {
				walk(c)
			}
		case *Residual:
			walk(v.Main)
			walk(v.Shortcut)
		case *ApproxLinear:
			walk(v.conv)
		case *ApproxConv2D:
			clipFlags += cap(v.xClip) + cap(v.w.wClip)
			total += cap(v.xq) + cap(v.xT) + cap(v.w.wq) + cap(v.xClip) + cap(v.w.wClip)
		}
	}
	walk(m)
	return total, clipFlags
}

// TestPredictSkipsBackwardScratch asserts the point of the path. On
// identically built fresh models, the first Predict must allocate
// strictly less than the first Forward and leave strictly less scratch
// behind in the approximate layers — in particular no clip flags at
// all, which Forward cannot avoid. (Steady-state allocation counts no
// longer separate the two: both run the approximate layers out of
// their arenas at zero allocations.)
func TestPredictSkipsBackwardScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; byte counts hold only without -race")
	}
	op := STEOp(appmult.NewAccurate(7))
	x := tensor.New(4, 3, 8, 8)
	x.RandNormal(rand.New(rand.NewSource(5)), 1)
	mF := inferModel(op, false, rand.New(rand.NewSource(5)))
	mP := inferModel(op, false, rand.New(rand.NewSource(5)))
	mF.Forward(x, false) // builds the op's shared tables outside the measurement
	mF = inferModel(op, false, rand.New(rand.NewSource(5)))

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fwd := allocated(func() { mF.Forward(x, false) })
	prd := allocated(func() { mP.Predict(x) })
	if prd >= fwd {
		t.Errorf("first Predict allocates %d bytes, first Forward %d; inference must allocate less", prd, fwd)
	}
	fwdKept, fwdFlags := approxScratch(mF)
	prdKept, prdFlags := approxScratch(mP)
	if prdFlags != 0 || fwdFlags == 0 {
		t.Errorf("clip flags retained: Predict %d bytes (want 0), Forward %d (want > 0)", prdFlags, fwdFlags)
	}
	if prdKept >= fwdKept {
		t.Errorf("Predict retains %d scratch bytes in the approximate layers, Forward %d; want strictly less", prdKept, fwdKept)
	}
}

// TestBackwardAfterInferPanics: Infer overwrites an approximate layer's
// cached levels (and batch size) but records no clip flags, so a
// Backward that follows it would mask the inference batch with the
// previous Forward's flags. It must refuse, and work again after the
// next Forward.
func TestBackwardAfterInferPanics(t *testing.T) {
	op := STEOp(appmult.NewAccurate(6))
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		layer  Layer
		train  *tensor.Tensor
		served *tensor.Tensor
	}{
		{NewApproxConv2D("conv", 2, 3, 3, 1, 1, op, rng), tensor.New(2, 2, 5, 5), tensor.New(1, 2, 5, 5)},
		{NewApproxLinear("fc", 6, 4, op, rng), tensor.New(3, 6), tensor.New(1, 6)},
	} {
		tc.train.RandNormal(rng, 1)
		tc.served.RandNormal(rng, 1)
		dy := tensor.New(tc.layer.Forward(tc.train, true).Shape...)
		dy.RandNormal(rng, 1)
		tc.layer.Backward(dy)

		Infer(tc.layer, tc.served)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Backward must follow Forward") {
					t.Errorf("%s: Backward after Infer: recovered %q, want the ordering panic", tc.layer.Name(), msg)
				}
			}()
			tc.layer.Backward(dy)
		}()

		tc.layer.Forward(tc.train, true)
		tc.layer.Backward(dy)
	}
}

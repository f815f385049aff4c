package models

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

func TestApproximateRewritesConvs(t *testing.T) {
	e, _ := appmult.Lookup("mul7u_rm6")
	op := nn.STEOp(e.Mult)
	src := ResNet(18, Config{Classes: 10, InputHW: 16, Width: 0.125, Seed: 3})
	dst := Approximate(src, op)

	var srcConvs, dstApprox int
	var walk func(l nn.Layer, f func(nn.Layer))
	walk = func(l nn.Layer, f func(nn.Layer)) {
		f(l)
		switch s := l.(type) {
		case *nn.Sequential:
			for _, inner := range s.Layers {
				walk(inner, f)
			}
		case *nn.Residual:
			walk(s.Main, f)
			walk(s.Shortcut, f)
		}
	}
	walk(src, func(l nn.Layer) {
		if _, ok := l.(*nn.Conv2D); ok {
			srcConvs++
		}
	})
	walk(dst, func(l nn.Layer) {
		if _, ok := l.(*nn.ApproxConv2D); ok {
			dstApprox++
		}
		if _, ok := l.(*nn.Conv2D); ok {
			t.Error("float conv survived the rewrite")
		}
	})
	if srcConvs == 0 || dstApprox != srcConvs {
		t.Fatalf("rewrote %d of %d convs", dstApprox, srcConvs)
	}
	if len(dst.Params()) != len(src.Params()) {
		t.Fatalf("parameter layout changed: %d vs %d", len(dst.Params()), len(src.Params()))
	}
}

func TestApproximateCopiesWeightsIndependently(t *testing.T) {
	e, _ := appmult.Lookup("mul7u_rm6")
	op := nn.STEOp(e.Mult)
	src := LeNet(Config{Classes: 4, InputHW: 8, Width: 0.25, Seed: 4})
	dst := Approximate(src, op)

	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		if sp[i].Name != dp[i].Name {
			t.Fatalf("param %d name %q vs %q", i, sp[i].Name, dp[i].Name)
		}
		for j := range sp[i].Value.Data {
			if sp[i].Value.Data[j] != dp[i].Value.Data[j] {
				t.Fatalf("param %s not copied", sp[i].Name)
			}
		}
	}
	// Mutating the rewrite must not touch the source.
	dp[0].Value.Data[0] += 42
	if sp[0].Value.Data[0] == dp[0].Value.Data[0] {
		t.Error("rewritten model aliases source weights")
	}
}

func TestApproximateWithAccurateMultTracksFloatModel(t *testing.T) {
	// An accurate-multiplier rewrite of a trained float model should
	// produce nearly identical logits (within quantization error).
	op := nn.STEOp(appmult.NewAccurate(8))
	src := LeNet(Config{Classes: 4, InputHW: 8, Width: 0.25, Seed: 5})
	dst := Approximate(src, op)

	x := tensor.New(2, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = float32(i%11)/11 - 0.5
	}
	ys := src.Forward(x, false)
	yd := dst.Forward(x, false)
	var maxAbs, maxErr float64
	for i := range ys.Data {
		if a := math.Abs(float64(ys.Data[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(ys.Data[i] - yd.Data[i])); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 0.1*math.Max(maxAbs, 1e-3) {
		t.Errorf("rewrite deviates %.4f (max logit %.4f)", maxErr, maxAbs)
	}
}

func TestApproximateEstimatorSwap(t *testing.T) {
	// Re-approximating an already-approximate model swaps the op.
	e, _ := appmult.Lookup("mul6u_rm4")
	ste := nn.STEOp(e.Mult)
	diff := nn.DifferenceOp(e.Mult, e.HWS)
	m1 := LeNet(Config{Classes: 4, InputHW: 8, Width: 0.25, Conv: ApproxConv(ste), Seed: 6})
	m2 := Approximate(m1, diff)
	found := false
	for _, l := range m2.Layers {
		if ac, ok := l.(*nn.ApproxConv2D); ok {
			found = true
			if ac.Op() != diff {
				t.Error("estimator not swapped")
			}
		}
	}
	if !found {
		t.Fatal("no approximate convs after swap")
	}
}

func TestApproximateEstimatorSwapKeepsObserver(t *testing.T) {
	// The estimator swap must not discard the activation-range
	// calibration accumulated by the source layers' observers.
	e, _ := appmult.Lookup("mul6u_rm4")
	ste := nn.STEOp(e.Mult)
	diff := nn.DifferenceOp(e.Mult, e.HWS)
	m1 := LeNet(Config{Classes: 4, InputHW: 8, Width: 0.25, Conv: ApproxConv(ste), Seed: 7})
	x := tensor.New(2, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = float32(i%13)/13 - 0.5
	}
	m1.Forward(x, true) // calibrate the observers
	m2 := Approximate(m1, diff)

	srcObs := map[string][]float32{}
	for _, l := range m1.Layers {
		if ac, ok := l.(*nn.ApproxConv2D); ok {
			if !ac.Observer.Seen() {
				t.Fatalf("%s: source observer never calibrated", ac.Name())
			}
			srcObs[ac.Name()] = ac.Observer.StateVec()
		}
	}
	checked := 0
	for _, l := range m2.Layers {
		ac, ok := l.(*nn.ApproxConv2D)
		if !ok {
			continue
		}
		want, found := srcObs[ac.Name()]
		if !found {
			continue
		}
		checked++
		if !ac.Observer.Seen() {
			t.Errorf("%s: observer state dropped by rewrite", ac.Name())
		}
		got := ac.Observer.StateVec()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: observer state %v, want %v", ac.Name(), got, want)
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no approximate convs compared")
	}
}

type statefulStub struct{ p *nn.Param }

func (s statefulStub) Name() string                                        { return "stub" }
func (s statefulStub) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (s statefulStub) Backward(dy *tensor.Tensor) *tensor.Tensor           { return dy }
func (s statefulStub) Params() []*nn.Param                                 { return []*nn.Param{s.p} }

func TestApproximateRejectsUnknownStatefulLayer(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	op := nn.STEOp(e.Mult)
	stub := statefulStub{p: &nn.Param{Name: "p", Value: tensor.New(1), Grad: tensor.New(1)}}
	m := nn.NewSequential("m", stub)
	defer func() {
		if recover() == nil {
			t.Error("unknown stateful layer silently aliased")
		}
	}()
	Approximate(m, op)
}

func TestApproximatePassesUnknownStatelessLayer(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	op := nn.STEOp(e.Mult)
	m := nn.NewSequential("m", nn.Identity{})
	out := Approximate(m, op)
	if len(out.Layers) != 1 {
		t.Fatal("stateless layer dropped")
	}
}

// TestApproximateKeepsWhatCloneKeeps: the two cases in which the
// Approximate walk had drifted from Clone's. A BatchNorm2D keeps its
// Eps and Momentum, and an ApproxLinear is rebuilt onto the new op with
// its weights and observer instead of panicking as an unknown layer.
func TestApproximateKeepsWhatCloneKeeps(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	ste, diff := nn.STEOp(e.Mult), nn.DifferenceOp(e.Mult, e.HWS)
	rng := rand.New(rand.NewSource(5))
	bn := nn.NewBatchNorm2D("bn", 3)
	bn.Eps, bn.Momentum = 1e-3, 0.25
	al := nn.NewApproxLinear("fc", 3*4*4, 2, ste, rng)
	src := nn.NewSequential("m", bn, nn.NewFlatten(), al)
	x := tensor.New(2, 3, 4, 4)
	x.RandNormal(rng, 1)
	want := src.Forward(x, true).Clone() // also calibrates fc's observer

	out := Approximate(src, diff)
	if got := out.Layers[0].(*nn.BatchNorm2D); got.Eps != bn.Eps || got.Momentum != bn.Momentum {
		t.Errorf("BatchNorm2D rebuilt with eps=%v momentum=%v, want %v/%v", got.Eps, got.Momentum, bn.Eps, bn.Momentum)
	}
	fc := out.Layers[2].(*nn.ApproxLinear)
	if fc.Op() != diff {
		t.Error("ApproxLinear not rebuilt onto the new op")
	}
	if fc == al || !fc.ActivationObserver().Seen() {
		t.Error("ApproxLinear aliased, or its observer state dropped")
	}
	// Same forward LUT, same weights, same statistics: same bits.
	got := out.Forward(x, true)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("output %d: %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestOpSwapDropsWeightSideState: an approximate layer keeps the
// quantized form of its weights per weight version, and that form also
// depends on the op (its Bits set the levels, its strip form the
// kernels' copies of them). A model that has served under mul7u_rm6/STE
// and is switched to mul8u_rm8/smoothdiff — its weights never written —
// must predict, bit for bit, what a freshly built model holding the same
// weights predicts.
func TestOpSwapDropsWeightSideState(t *testing.T) {
	e7, _ := appmult.Lookup("mul7u_rm6")
	e8, _ := appmult.Lookup("mul8u_rm8")
	smooth, err := gradient.ParseEstimator(gradient.EstSmoothDiff)
	if err != nil {
		t.Fatal(err)
	}
	m := VGG(11, Config{Classes: 10, InputHW: 16, Width: 0.125, Conv: ApproxConv(nn.STEOp(e7.Mult)), Seed: 3})
	x := tensor.New(1, 3, 16, 16)
	x.RandNormal(rand.New(rand.NewSource(4)), 1)
	requireFresh := func(what string, fresh *nn.Sequential, prev *tensor.Tensor) *tensor.Tensor {
		t.Helper()
		got := m.Predict(x).Clone()
		want := fresh.Predict(x)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: output %d = %v, a fresh model gives %v: stale weight-side state", what, i, got.Data[i], want.Data[i])
			}
		}
		if prev != nil {
			moved := false
			for i := range got.Data {
				moved = moved || got.Data[i] != prev.Data[i]
			}
			if !moved {
				t.Fatalf("%s: output did not move", what)
			}
		}
		return got
	}
	out := requireFresh("as built", Clone(m), nil)

	op8 := nn.EstimatorOp(e8.Mult, smooth, e8.HWS)
	nn.VisitLayers(m, func(l nn.Layer) {
		if c, ok := l.(*nn.ApproxConv2D); ok {
			c.SetOp(op8)
		}
	})
	requireFresh("after SetOp", Approximate(m, op8), out)
}

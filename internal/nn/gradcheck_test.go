package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/tensor"
)

// lossOf runs a forward pass and returns the scalar loss for gradient
// checking.
func lossOf(model Layer, x *tensor.Tensor, labels []int) float64 {
	out := model.Forward(x, true)
	if len(out.Shape) != 2 {
		out = out.Reshape(out.Shape[0], out.Numel()/out.Shape[0])
	}
	loss, _ := SoftmaxCrossEntropy(out, labels)
	return loss
}

// numericGradCheck compares analytic parameter gradients against
// central finite differences. Layers with stochastic or
// statistics-updating behaviour must be deterministic across repeated
// forwards for this to be valid (our layers are, for fixed inputs,
// once observers have converged — the helper warms them up first).
func numericGradCheck(t *testing.T, model Layer, x *tensor.Tensor, labels []int, eps float32, tol float64) {
	t.Helper()
	// Warm up activation observers so quantization parameters stop
	// moving between the analytic and numeric evaluations.
	for i := 0; i < 8; i++ {
		model.Forward(x, true)
	}

	ZeroGrads(model)
	out := model.Forward(x, true)
	origShape := append([]int(nil), out.Shape...)
	if len(out.Shape) != 2 {
		out = out.Reshape(out.Shape[0], out.Numel()/out.Shape[0])
	}
	_, dlogits := SoftmaxCrossEntropy(out, labels)
	model.Backward(dlogits.Reshape(origShape...))

	for _, p := range model.Params() {
		checked := 0
		for i := 0; i < p.Value.Numel() && checked < 12; i += 1 + p.Value.Numel()/12 {
			orig := p.Value.Data[i]
			set := func(v float32) {
				p.Value.Data[i] = v
				p.Touch()
			}
			set(orig + eps)
			lp := lossOf(model, x, labels)
			set(orig - eps)
			lm := lossOf(model, x, labels)
			set(orig)
			numeric := (lp - lm) / (2 * float64(eps))
			analytic := float64(p.Grad.Data[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(5e-3, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > tol {
				t.Errorf("%s[%d]: analytic %.6f vs numeric %.6f (rel %.3f)",
					p.Name, i, analytic, numeric, diff/scale)
			}
			checked++
		}
	}
}

func TestGradCheckLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model := NewSequential("m",
		NewLinear("fc1", 6, 5, rng),
		NewReLU(),
		NewLinear("fc2", 5, 3, rng),
	)
	x := tensor.New(4, 6)
	x.RandNormal(rng, 1)
	numericGradCheck(t, model, x, []int{0, 1, 2, 1}, 3e-3, 0.05)
}

func TestGradCheckConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// No MaxPool here: its argmax kinks would corrupt the finite
	// differences. MaxPool's backward is covered by TestMaxPool.
	model := NewSequential("m",
		NewConv2D("c1", 2, 3, 3, 1, 1, rng),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 3*6*6, 4, rng),
	)
	x := tensor.New(2, 2, 6, 6)
	x.RandNormal(rng, 1)
	numericGradCheck(t, model, x, []int{1, 3}, 3e-3, 0.08)
}

func TestGradCheckBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	model := NewSequential("m",
		NewConv2D("c1", 1, 2, 3, 1, 1, rng),
		NewBatchNorm2D("bn", 2),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 2*4*4, 3, rng),
	)
	x := tensor.New(3, 1, 4, 4)
	x.RandNormal(rng, 1)
	numericGradCheck(t, model, x, []int{0, 2, 1}, 3e-3, 0.08)
}

func TestGradCheckResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	block := NewSequential("block",
		NewConv2D("c1", 2, 2, 3, 1, 1, rng),
		NewReLU(),
		NewConv2D("c2", 2, 2, 3, 1, 1, rng),
	)
	model := NewSequential("m",
		NewResidual("res", block, nil),
		NewReLU(),
		NewFlatten(),
		NewLinear("fc", 2*4*4, 3, rng),
	)
	x := tensor.New(2, 2, 4, 4)
	x.RandNormal(rng, 1)
	numericGradCheck(t, model, x, []int{0, 1}, 3e-3, 0.08)
}

// TestGradCheckApproxLinearAccurateSTE is the key sanity link between
// the approximate stack and ordinary QAT: with an ACCURATE multiplier
// and STE gradients, the analytic gradient of the approximate layer
// must match finite differences of its own (quantized) loss surface
// wherever the surface is locally smooth. Quantization makes the loss
// piecewise constant in each parameter at fine scales, so we use a
// large epsilon spanning several quantization steps and a loose
// tolerance: what we are checking is the slope trend, which is what
// gradient descent consumes.
func TestGradCheckApproxLinearAccurateSTE(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	op := STEOp(appmult.NewAccurate(8))
	model := NewSequential("m",
		NewApproxLinear("al", 6, 4, op, rng),
	)
	x := tensor.New(8, 6)
	x.RandNormal(rng, 1)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	numericGradCheck(t, model, x, labels, 0.05, 0.35)
}

// TestApproxGradientDescends checks the property that actually matters
// for retraining: stepping parameters along the negative analytic
// gradient reduces the loss, for both STE and difference-based
// estimators, on an approximate layer with a large-error multiplier.
func TestApproxGradientDescends(t *testing.T) {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("registry missing mul7u_rm6")
	}
	for _, mode := range []string{"ste", "diff"} {
		var op *Op
		if mode == "ste" {
			op = STEOp(e.Mult)
		} else {
			op = DifferenceOp(e.Mult, e.HWS)
		}
		rng := rand.New(rand.NewSource(16))
		model := NewSequential("m",
			NewApproxLinear("al", 8, 4, op, rng),
		)
		x := tensor.New(16, 8)
		x.RandNormal(rng, 1)
		labels := make([]int, 16)
		for i := range labels {
			labels[i] = i % 4
		}
		for i := 0; i < 8; i++ {
			model.Forward(x, true) // warm observers
		}
		start := lossOf(model, x, labels)
		loss := start
		for step := 0; step < 40; step++ {
			ZeroGrads(model)
			out := model.Forward(x, true)
			_, dl := SoftmaxCrossEntropy(out, labels)
			model.Backward(dl)
			for _, p := range model.Params() {
				p.Value.AddScaled(p.Grad, -0.05)
				p.Touch()
			}
			loss = lossOf(model, x, labels)
		}
		if loss >= start {
			t.Errorf("%s: descent failed: loss %v -> %v", mode, start, loss)
		}
	}
}

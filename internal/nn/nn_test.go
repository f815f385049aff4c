package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/tensor"
)

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromData([]float32{-2, -0.5, 0, 1, 3}, 5)
	y := r.Forward(x, true)
	want := []float32{0, 0, 0, 1, 3}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("ReLU[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	dy := tensor.FromData([]float32{1, 1, 1, 1, 1}, 5)
	dx := r.Backward(dy)
	wantG := []float32{0, 0, 1, 1, 1} // x==0 passes (mask is v >= 0)
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Errorf("ReLU grad[%d] = %v, want %v", i, dx.Data[i], wantG[i])
		}
	}
	if x.Data[0] != -2 {
		t.Error("ReLU mutated its input")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 60 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dy := tensor.New(2, 60)
	dx := f.Backward(dy)
	if len(dx.Shape) != 4 || dx.Shape[3] != 5 {
		t.Errorf("unflatten shape %v", dx.Shape)
	}
}

func TestMaxPool(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromData([]float32{
		1, 2, 5, 0,
		3, 4, 1, 1,
		0, 0, 9, 8,
		0, 0, 7, 6,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	if y.Shape[2] != 2 || y.Shape[3] != 2 {
		t.Fatalf("pool shape %v", y.Shape)
	}
	want := []float32{4, 5, 0, 9}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Errorf("pool[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	dy := tensor.FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := p.Backward(dy)
	if dx.At(0, 0, 1, 1) != 1 { // argmax of the 4
		t.Errorf("grad did not route to argmax: %v", dx.Data)
	}
	if dx.At(0, 0, 0, 2) != 2 {
		t.Errorf("grad did not route to the 5: %v", dx.Data)
	}
	var sum float32
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 10 {
		t.Errorf("gradient mass not conserved: %v", sum)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := NewGlobalAvgPool()
	x := tensor.FromData([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	y := p.Forward(x, true)
	if y.At(0, 0, 0, 0) != 2.5 || y.At(0, 1, 0, 0) != 10 {
		t.Errorf("gap output %v", y.Data)
	}
	dy := tensor.FromData([]float32{4, 8}, 1, 2, 1, 1)
	dx := p.Backward(dy)
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Errorf("gap grad %v", dx.Data)
	}
}

func TestBatchNormForwardStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.New(4, 3, 5, 5)
	x.RandNormal(rng, 2)
	for i := range x.Data {
		x.Data[i] += 1.5 // shift so normalization has work to do
	}
	y := bn.Forward(x, true)
	// Per-channel mean ~0, var ~1.
	n, c, hw := 4, 3, 25
	for ch := 0; ch < c; ch++ {
		var mean, vr float64
		for img := 0; img < n; img++ {
			for j := 0; j < hw; j++ {
				mean += float64(y.Data[(img*c+ch)*hw+j])
			}
		}
		mean /= float64(n * hw)
		for img := 0; img < n; img++ {
			for j := 0; j < hw; j++ {
				d := float64(y.Data[(img*c+ch)*hw+j]) - mean
				vr += d * d
			}
		}
		vr /= float64(n * hw)
		if math.Abs(mean) > 1e-4 {
			t.Errorf("channel %d mean %v", ch, mean)
		}
		if math.Abs(vr-1) > 1e-3 {
			t.Errorf("channel %d var %v", ch, vr)
		}
	}
	// Eval mode uses running stats and must differ from train-mode
	// output on a shifted batch but stay finite.
	x2 := x.Clone()
	for i := range x2.Data {
		x2.Data[i] += 5
	}
	ye := bn.Forward(x2, false)
	for _, v := range ye.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("eval-mode produced NaN")
		}
	}
}

func TestSequentialParamsAndCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := NewSequential("a", NewLinear("fc1", 4, 3, rng), NewLinear("fc2", 3, 2, rng))
	b := NewSequential("b", NewLinear("fc1", 4, 3, rng), NewLinear("fc2", 3, 2, rng))
	if len(a.Params()) != 4 {
		t.Fatalf("params = %d, want 4", len(a.Params()))
	}
	CopyParams(b, a)
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != q.Value.Data[j] {
				t.Fatalf("param %d not copied", i)
			}
		}
	}
	x := tensor.New(2, 4)
	x.RandNormal(rng, 1)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("copied models diverge")
		}
	}
}

func TestCopyParamsMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := NewSequential("a", NewLinear("fc", 4, 3, rng))
	b := NewSequential("b", NewLinear("fc", 4, 2, rng))
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch accepted")
		}
	}()
	CopyParams(b, a)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	// Uniform logits: loss = ln(C).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Errorf("uniform loss %v, want ln4", loss)
	}
	// Gradient rows sum to zero.
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("grad row %d sums to %v", i, s)
		}
	}
	// Confident correct prediction: tiny loss.
	logits2 := tensor.FromData([]float32{10, 0, 0, 0}, 1, 4)
	loss2, _ := SoftmaxCrossEntropy(logits2, []int{0})
	if loss2 > 1e-3 {
		t.Errorf("confident correct loss %v", loss2)
	}
}

func TestTopKCorrect(t *testing.T) {
	logits := tensor.FromData([]float32{
		0.1, 0.9, 0.5, 0.2, // label 1: top-1 hit
		0.9, 0.1, 0.5, 0.2, // label 1: top-1 miss, top-2... 0.1 is rank 4
	}, 2, 4)
	if got := TopKCorrect(logits, []int{1, 1}, 1); got != 1 {
		t.Errorf("top1 = %d, want 1", got)
	}
	if got := TopKCorrect(logits, []int{1, 1}, 4); got != 2 {
		t.Errorf("top4 = %d, want 2", got)
	}
}

func TestApproxConvMatchesFloatConvWithAccurateMult(t *testing.T) {
	// With an accurate multiplier and 8-bit quantization, the
	// approximate convolution must approximate the float convolution
	// to within quantization error.
	rng := rand.New(rand.NewSource(24))
	op := STEOp(appmult.NewAccurate(8))
	ac := NewApproxConv2D("ac", 2, 3, 3, 1, 1, op, rng)
	fc := NewConv2D("fc", 2, 3, 3, 1, 1, rng)
	// Share weights.
	copy(fc.Weight.Value.Data, ac.Weight.Value.Data)
	copy(fc.Bias.Value.Data, ac.Bias.Value.Data)

	x := tensor.New(2, 2, 6, 6)
	x.RandNormal(rng, 1)
	ya := ac.Forward(x, true)
	yf := fc.Forward(x, true)
	if ya.Numel() != yf.Numel() {
		t.Fatalf("shape mismatch: %v vs %v", ya.Shape, yf.Shape)
	}
	var maxAbs, maxErr float64
	for i := range yf.Data {
		if a := math.Abs(float64(yf.Data[i])); a > maxAbs {
			maxAbs = a
		}
		if d := math.Abs(float64(ya.Data[i] - yf.Data[i])); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 0.05*maxAbs {
		t.Errorf("approx conv with accurate mult deviates %.4f (max activation %.4f)", maxErr, maxAbs)
	}
}

func TestApproxConvErrorGrowsWithMultiplierError(t *testing.T) {
	// Forward error with a large-error AppMult must exceed that of the
	// accurate multiplier — the premise of retraining.
	rng := rand.New(rand.NewSource(25))
	x := tensor.New(1, 2, 6, 6)
	x.RandNormal(rng, 1)

	run := func(m appmult.Multiplier) float64 {
		rngc := rand.New(rand.NewSource(26)) // identical weights per run
		ac := NewApproxConv2D("ac", 2, 3, 3, 1, 1, STEOp(m), rngc)
		fc := NewConv2D("fc", 2, 3, 3, 1, 1, rand.New(rand.NewSource(26)))
		ya := ac.Forward(x, true)
		yf := fc.Forward(x, true)
		var sum float64
		for i := range yf.Data {
			d := float64(ya.Data[i] - yf.Data[i])
			sum += d * d
		}
		return sum
	}
	accErr := run(appmult.NewAccurate(7))
	e, _ := appmult.Lookup("mul7u_rm6")
	rmErr := run(e.Mult)
	if rmErr <= accErr {
		t.Errorf("rm6 forward error %v not above accurate %v", rmErr, accErr)
	}
}

func TestApproxConvObserverFrozenInEval(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	op := STEOp(appmult.NewAccurate(8))
	ac := NewApproxConv2D("ac", 1, 1, 3, 1, 1, op, rng)
	x := tensor.New(1, 1, 4, 4)
	x.RandNormal(rng, 1)
	ac.Forward(x, true)
	mn1, mx1 := ac.Observer.Range()
	// A wildly different eval batch must not move the observer.
	x2 := x.Clone()
	x2.Scale(100)
	ac.Forward(x2, false)
	mn2, mx2 := ac.Observer.Range()
	if mn1 != mn2 || mx1 != mx2 {
		t.Error("observer updated during eval")
	}
}

func TestIdentityAndResidualShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	block := NewSequential("b", NewConv2D("c", 2, 2, 3, 1, 1, rng))
	r := NewResidual("res", block, nil)
	x := tensor.New(1, 2, 4, 4)
	x.RandNormal(rng, 1)
	y := r.Forward(x, true)
	for i, d := range x.Shape {
		if y.Shape[i] != d {
			t.Fatalf("residual changed shape: %v -> %v", x.Shape, y.Shape)
		}
	}
	dy := tensor.New(y.Shape...)
	dy.Fill(1)
	dx := r.Backward(dy)
	if dx.Numel() != x.Numel() {
		t.Error("residual backward shape mismatch")
	}
	if len(r.Params()) != len(block.Params()) {
		t.Error("identity shortcut contributed params")
	}
}

func TestSetOpSwitchesEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	e, _ := appmult.Lookup("mul7u_rm6")
	al := NewApproxLinear("al", 4, 2, STEOp(e.Mult), rng)
	x := tensor.New(4, 4)
	x.RandNormal(rng, 1)
	labels := []int{0, 1, 0, 1}
	for i := 0; i < 4; i++ {
		al.Forward(x, true)
	}

	gradWith := func(op *Op) []float32 {
		al.conv.SetOp(op)
		ZeroGrads(al)
		out := al.Forward(x, true)
		_, dl := SoftmaxCrossEntropy(out, labels)
		al.Backward(dl)
		return append([]float32(nil), al.Weight.Grad.Data...)
	}
	g1 := gradWith(STEOp(e.Mult))
	g2 := gradWith(DifferenceOp(e.Mult, e.HWS))
	same := true
	for i := range g1 {
		if g1[i] != g2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("STE and difference gradients identical on a large-error multiplier")
	}
}

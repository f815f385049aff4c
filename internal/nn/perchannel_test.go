package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// perChannelLayer builds an accurate-multiplier approximate conv whose
// filters have wildly different magnitudes — the scenario per-channel
// quantization exists for.
func perChannelLayer(perChannel bool) (*ApproxConv2D, *Conv2D, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(61))
	op := STEOp(appmult.NewAccurate(8))
	ac := NewApproxConv2D("ac", 2, 4, 3, 1, 1, op, rng)
	ac.PerChannel = perChannel
	fc := NewConv2D("fc", 2, 4, 3, 1, 1, rand.New(rand.NewSource(61)))
	// Scale filter magnitudes apart by 100x: per-tensor quantization
	// wastes almost all levels on the big filter.
	k := 2 * 3 * 3
	for oc := 0; oc < 4; oc++ {
		scale := float32(1)
		if oc > 0 {
			scale = 0.01
		}
		for i := 0; i < k; i++ {
			ac.Weight.Value.Data[oc*k+i] *= scale
		}
	}
	copy(fc.Weight.Value.Data, ac.Weight.Value.Data)
	copy(fc.Bias.Value.Data, ac.Bias.Value.Data)
	x := tensor.New(2, 2, 6, 6)
	x.RandNormal(rng, 1)
	return ac, fc, x
}

// quantError measures quantization error on the SMALL filters only
// (channels 1-3): that is where per-tensor quantization starves levels;
// the big channel 0 has similar error under both schemes.
func quantError(ac *ApproxConv2D, fc *Conv2D, x *tensor.Tensor) float64 {
	ya := ac.Forward(x, true)
	yf := fc.Forward(x, true)
	n, c, hw := ya.Shape[0], ya.Shape[1], ya.Shape[2]*ya.Shape[3]
	var sum float64
	for img := 0; img < n; img++ {
		for oc := 1; oc < c; oc++ {
			base := (img*c + oc) * hw
			for j := 0; j < hw; j++ {
				d := float64(ya.Data[base+j] - yf.Data[base+j])
				sum += d * d
			}
		}
	}
	return sum
}

// TestPerChannelReducesQuantizationError: with 50x filter-magnitude
// spread, per-channel weight quantization must track the float
// convolution far better than per-tensor.
func TestPerChannelReducesQuantizationError(t *testing.T) {
	acT, fcT, x := perChannelLayer(false)
	perTensorErr := quantError(acT, fcT, x)
	acC, fcC, _ := perChannelLayer(true)
	perChannelErr := quantError(acC, fcC, x)
	if perChannelErr >= perTensorErr/4 {
		t.Errorf("per-channel error %.6f not well below per-tensor %.6f", perChannelErr, perTensorErr)
	}
}

// TestPerChannelGradientDescends: the per-channel backward pass must
// still descend the loss.
func TestPerChannelGradientDescends(t *testing.T) {
	e, _ := appmult.Lookup("mul7u_rm6")
	rng := rand.New(rand.NewSource(62))
	op := DifferenceOp(e.Mult, e.HWS)
	layer := NewApproxConv2D("ac", 1, 2, 3, 1, 1, op, rng)
	layer.PerChannel = true
	model := NewSequential("m", layer, NewFlatten(), NewLinear("fc", 2*4*4, 3, rng))
	x := tensor.New(6, 1, 4, 4)
	x.RandNormal(rng, 1)
	labels := []int{0, 1, 2, 0, 1, 2}
	for i := 0; i < 6; i++ {
		model.Forward(x, true)
	}
	start := lossOf(model, x, labels)
	for step := 0; step < 30; step++ {
		ZeroGrads(model)
		out := model.Forward(x, true)
		_, dl := SoftmaxCrossEntropy(out, labels)
		model.Backward(dl)
		for _, p := range model.Params() {
			p.Value.AddScaled(p.Grad, -0.05)
			p.Touch()
		}
	}
	end := lossOf(model, x, labels)
	if end >= start {
		t.Errorf("per-channel descent failed: %v -> %v", start, end)
	}
}

// TestPerChannelMatchesPerTensorWhenUniform: when every filter has the
// same range, the two schemes must agree closely.
func TestPerChannelMatchesPerTensorWhenUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	op := STEOp(appmult.NewAccurate(8))
	mk := func(pc bool) *ApproxConv2D {
		r := rand.New(rand.NewSource(64))
		l := NewApproxConv2D("ac", 1, 2, 3, 1, 1, op, r)
		l.PerChannel = pc
		// Force identical per-filter ranges: clamp everything inside
		// (-0.9, 0.9), then pin each filter's extremes to exactly +-1 so
		// the per-channel and per-tensor calibrations coincide.
		k := 9
		for i := range l.Weight.Value.Data {
			if l.Weight.Value.Data[i] > 0.9 {
				l.Weight.Value.Data[i] = 0.9
			}
			if l.Weight.Value.Data[i] < -0.9 {
				l.Weight.Value.Data[i] = -0.9
			}
		}
		for oc := 0; oc < 2; oc++ {
			l.Weight.Value.Data[oc*k] = 1
			l.Weight.Value.Data[oc*k+1] = -1
		}
		return l
	}
	a := mk(false)
	b := mk(true)
	x := tensor.New(1, 1, 5, 5)
	x.RandNormal(rng, 1)
	ya := a.Forward(x, true)
	yb := b.Forward(x, true)
	for i := range ya.Data {
		if math.Abs(float64(ya.Data[i]-yb.Data[i])) > 1e-5 {
			t.Fatalf("uniform-range schemes diverge at %d: %v vs %v", i, ya.Data[i], yb.Data[i])
		}
	}
}

func TestApproxGEMMRejectsBadParamArity(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	op := STEOp(e.Mult)
	defer func() {
		if recover() == nil {
			t.Error("bad pw arity accepted")
		}
	}()
	px := quant.Calibrate(0, 1, 6)
	op.ForwardGEMM(nil, make([]float32, 4), make([]uint8, 4), make([]uint8, 4), 2, 2, 2,
		nil, px, make([]float32, 2))
}

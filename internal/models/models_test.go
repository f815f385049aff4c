package models

import (
	"math"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

func forwardBackward(t *testing.T, m *nn.Sequential, inputHW, classes int) {
	t.Helper()
	x := tensor.New(2, 3, inputHW, inputHW)
	for i := range x.Data {
		x.Data[i] = float32(i%17)/17 - 0.5
	}
	out := m.Forward(x, true)
	if len(out.Shape) != 2 || out.Shape[0] != 2 || out.Shape[1] != classes {
		t.Fatalf("%s output shape %v, want (2,%d)", m.Name(), out.Shape, classes)
	}
	loss, grad := nn.SoftmaxCrossEntropy(out, []int{0, 1})
	if loss <= 0 {
		t.Fatalf("%s loss %v", m.Name(), loss)
	}
	if dx := m.Backward(grad); dx != nil {
		t.Fatalf("%s: a model's Backward returned an input gradient %v", m.Name(), dx.Shape)
	}
	// Every parameter should exist and have a gradient buffer.
	if len(m.Params()) == 0 {
		t.Fatalf("%s has no parameters", m.Name())
	}
}

// fullBackward is a model's backward with every input gradient, the
// first layer's included, as Sequential.Backward ran it before the
// first layer skipped the gradient of the input images.
func fullBackward(l nn.Layer, dy *tensor.Tensor) *tensor.Tensor {
	if s, ok := l.(*nn.Sequential); ok {
		for i := len(s.Layers) - 1; i >= 0; i-- {
			dy = fullBackward(s.Layers[i], dy)
		}
		return dy
	}
	return l.Backward(dy)
}

// TestModelBackwardMatchesFullBackward: a model's Backward leaves every
// parameter gradient — the first layer's included — Float32bits-equal
// to a full backward's, for the float conv and for the approximate one
// on each of its backward rows (lenet's stem on small, vgg11's and
// resnet18's on affine under STE and on fused under smoothdiff).
func TestModelBackwardMatchesFullBackward(t *testing.T) {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("registry missing mul7u_rm6")
	}
	convs := []struct {
		name string
		conv ConvFactory
	}{
		{"float", nil},
		{"ste", ApproxConv(nn.STEOp(e.Mult))},
		{"smoothdiff", ApproxConv(nn.DifferenceOp(e.Mult, e.HWS))},
	}
	x := tensor.New(8, 3, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(i%23)/23 - 0.4
	}
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, kind := range []string{"lenet", "vgg11", "resnet18"} {
		for _, c := range convs {
			cfg := Config{Classes: 10, InputHW: 16, Width: 0.125, Conv: c.conv, Seed: 3}
			model, err := ByKind(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			full, _ := ByKind(kind, cfg)
			_, g := nn.SoftmaxCrossEntropy(model.Forward(x, true), labels)
			if dx := model.Backward(g); dx != nil {
				t.Fatalf("%s/%s: Backward returned an input gradient", kind, c.name)
			}
			_, g = nn.SoftmaxCrossEntropy(full.Forward(x, true), labels)
			if dx := fullBackward(full, g); dx.Numel() != x.Numel() {
				t.Fatalf("%s/%s: full backward's input gradient has shape %v", kind, c.name, dx.Shape)
			}
			fp := full.Params()
			for i, p := range model.Params() {
				for j, v := range p.Grad.Data {
					if math.Float32bits(v) != math.Float32bits(fp[i].Grad.Data[j]) {
						t.Fatalf("%s/%s: %s grad[%d] = %v, full backward %v", kind, c.name, p.Name, j, v, fp[i].Grad.Data[j])
					}
				}
			}
		}
	}
}

func TestLeNetForwardBackward(t *testing.T) {
	m := LeNet(Config{Classes: 10, InputHW: 32, Width: 1, Seed: 1})
	forwardBackward(t, m, 32, 10)
}

func TestLeNetScaled(t *testing.T) {
	m := LeNet(Config{Classes: 10, InputHW: 16, Width: 0.5, Seed: 1})
	forwardBackward(t, m, 16, 10)
}

func TestVGGDepths(t *testing.T) {
	for _, d := range []int{11, 16, 19} {
		m := VGG(d, Config{Classes: 10, InputHW: 32, Width: 0.125, Seed: 2})
		forwardBackward(t, m, 32, 10)
	}
}

func TestVGG19ConvCount(t *testing.T) {
	// VGG19 has 16 conv layers; with BN each conv carries 4 params
	// (w, b, gamma, beta) plus the classifier's 2.
	m := VGG(19, Config{Classes: 10, InputHW: 32, Width: 0.125, Seed: 2})
	if got := len(m.Params()); got != 16*4+2 {
		t.Errorf("VGG19 param tensors = %d, want %d", got, 16*4+2)
	}
}

func TestVGGSmallInputSkipsPools(t *testing.T) {
	// At 8x8 input, only 3 of VGG's 5 pools fit; the model must still
	// produce valid logits.
	m := VGG(19, Config{Classes: 10, InputHW: 8, Width: 0.125, Seed: 3})
	forwardBackward(t, m, 8, 10)
}

func TestResNetDepths(t *testing.T) {
	for _, d := range []int{18, 34, 50} {
		m := ResNet(d, Config{Classes: 10, InputHW: 16, Width: 0.125, Seed: 4})
		forwardBackward(t, m, 16, 10)
	}
}

func TestResNet18BlockCount(t *testing.T) {
	// Stem conv + 8 basic blocks with 2 convs each + 1 downsample conv
	// per stage 2-4 = 1 + 16 + 3 = 20 convs. With BN pairs and the
	// classifier: 20*4 + 2 params.
	m := ResNet(18, Config{Classes: 10, InputHW: 32, Width: 0.125, Seed: 5})
	if got := len(m.Params()); got != 20*4+2 {
		t.Errorf("ResNet18 param tensors = %d, want %d", got, 20*4+2)
	}
}

func TestResNet100Classes(t *testing.T) {
	m := ResNet(34, Config{Classes: 100, InputHW: 8, Width: 0.125, Seed: 6})
	forwardBackward(t, m, 8, 100)
}

func TestApproxFactoryProducesApproxConvs(t *testing.T) {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("registry missing mul7u_rm6")
	}
	op := nn.STEOp(e.Mult)
	m := LeNet(Config{Classes: 10, InputHW: 16, Width: 0.5, Conv: ApproxConv(op), Seed: 7})
	found := 0
	for _, l := range m.Layers {
		if _, ok := l.(*nn.ApproxConv2D); ok {
			found++
		}
	}
	if found != 2 {
		t.Errorf("LeNet has %d approximate convs, want 2", found)
	}
	forwardBackward(t, m, 16, 10)
}

func TestFloatAndApproxModelsAreParamCompatible(t *testing.T) {
	// The retraining flow copies QAT weights into the approximate twin;
	// parameter lists must line up one-to-one.
	e, _ := appmult.Lookup("mul7u_rm6")
	op := nn.STEOp(e.Mult)
	cfg := Config{Classes: 10, InputHW: 16, Width: 0.25, Seed: 8}
	f := ResNet(18, cfg)
	cfgA := cfg
	cfgA.Conv = ApproxConv(op)
	a := ResNet(18, cfgA)
	nn.CopyParams(a, f) // panics on mismatch
	if len(f.Params()) != len(a.Params()) {
		t.Fatal("param count mismatch")
	}
}

func TestUnsupportedDepthsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"vgg13":    func() { VGG(13, Config{Classes: 10, InputHW: 32}) },
		"resnet20": func() { ResNet(20, Config{Classes: 10, InputHW: 32}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

func TestWidthFloor(t *testing.T) {
	cfg := Config{Classes: 10, InputHW: 32, Width: 0.01, Seed: 9}
	if cfg.scale(64) != 4 {
		t.Errorf("width floor broken: %d", cfg.scale(64))
	}
	if (Config{}).scale(64) != 64 {
		t.Errorf("zero width should mean 1.0: %d", (Config{}).scale(64))
	}
}

// Package models builds the DNN architectures of the paper's
// evaluation — LeNet (HWS selection), VGG-11/16/19 and ResNet-18/34/50
// (Tables II, Figs. 5-6) — in either float or approximate form.
//
// A ConvFactory chooses the convolution implementation: FloatConv for
// pre-training and reference models, ApproxConv(op) for AppMult-aware
// retraining. Following the paper, only convolutional layers are
// approximated; classifier heads stay float.
//
// Builders take an explicit input size and a width multiplier so the
// same architectures run at paper scale (32x32, width 1.0) or at the
// reduced scale the CPU-bound experiments use (see DESIGN.md's
// substitution table).
package models

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/nn"
)

// ConvFactory constructs one convolution layer.
type ConvFactory func(name string, inC, outC, k, stride, pad int, rng *rand.Rand) nn.Layer

// FloatConv returns a factory producing exact float convolutions.
func FloatConv() ConvFactory {
	return func(name string, inC, outC, k, stride, pad int, rng *rand.Rand) nn.Layer {
		return nn.NewConv2D(name, inC, outC, k, stride, pad, rng)
	}
}

// ApproxConv returns a factory producing LUT-based approximate
// convolutions sharing one multiplier/gradient bundle.
func ApproxConv(op *nn.Op) ConvFactory {
	return func(name string, inC, outC, k, stride, pad int, rng *rand.Rand) nn.Layer {
		return nn.NewApproxConv2D(name, inC, outC, k, stride, pad, op, rng)
	}
}

// Config selects model scale.
type Config struct {
	// Classes is the classifier width (10 for CIFAR-10, 100 for
	// CIFAR-100).
	Classes int
	// InputHW is the (square) input resolution; channels are fixed at 3.
	InputHW int
	// Width scales every channel count (1.0 = paper scale). Scaled
	// counts are rounded and floored at 4.
	Width float64
	// Conv chooses the convolution implementation.
	Conv ConvFactory
	// Seed drives weight initialization.
	Seed int64
}

func (c Config) scale(ch int) int {
	w := c.Width
	if w == 0 {
		w = 1
	}
	s := int(float64(ch)*w + 0.5)
	if s < 4 {
		s = 4
	}
	return s
}

func (c Config) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

func (c Config) conv() ConvFactory {
	if c.Conv == nil {
		return FloatConv()
	}
	return c.Conv
}

// LeNet builds the LeNet-5-style CNN the paper uses for HWS selection:
// two 5x5 conv+pool stages and a three-layer classifier.
func LeNet(cfg Config) *nn.Sequential {
	rng := cfg.rng()
	conv := cfg.conv()
	c1, c2 := cfg.scale(6), cfg.scale(16)
	m := nn.NewSequential("lenet",
		conv("conv1", 3, c1, 5, 1, 2, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		conv("conv2", c1, c2, 5, 1, 2, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
	)
	hw := cfg.InputHW / 4
	m.Add(nn.NewLinear("fc1", c2*hw*hw, cfg.scale(120), rng))
	m.Add(nn.NewReLU())
	m.Add(nn.NewLinear("fc2", cfg.scale(120), cfg.scale(84), rng))
	m.Add(nn.NewReLU())
	m.Add(nn.NewLinear("fc3", cfg.scale(84), cfg.Classes, rng))
	return m
}

// vggPlans maps depth to the standard VGG configuration strings, where
// numbers are conv widths and 'M' is a 2x2 max pool.
var vggPlans = map[int][]int{
	11: {64, -1, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1},
	16: {64, 64, -1, 128, 128, -1, 256, 256, 256, -1, 512, 512, 512, -1, 512, 512, 512, -1},
	19: {64, 64, -1, 128, 128, -1, 256, 256, 256, 256, -1, 512, 512, 512, 512, -1, 512, 512, 512, 512, -1},
}

// VGG builds a batch-normalized VGG network of depth 11, 16, or 19.
// Max-pool stages that would collapse the spatial size below 1 are
// skipped, so the architecture also runs on reduced input resolutions;
// the classifier is GAP + a single linear layer, the standard CIFAR
// adaptation.
func VGG(depth int, cfg Config) *nn.Sequential {
	plan, ok := vggPlans[depth]
	if !ok {
		panic(fmt.Sprintf("models: unsupported VGG depth %d", depth))
	}
	rng := cfg.rng()
	conv := cfg.conv()
	m := nn.NewSequential(fmt.Sprintf("vgg%d", depth))
	inC := 3
	hw := cfg.InputHW
	ci := 0
	var lastC int
	for _, p := range plan {
		if p == -1 {
			if hw >= 2 {
				m.Add(nn.NewMaxPool2D(2, 2))
				hw /= 2
			}
			continue
		}
		outC := cfg.scale(p)
		ci++
		m.Add(conv(fmt.Sprintf("conv%d", ci), inC, outC, 3, 1, 1, rng))
		m.Add(nn.NewBatchNorm2D(fmt.Sprintf("bn%d", ci), outC))
		m.Add(nn.NewReLU())
		inC = outC
		lastC = outC
	}
	m.Add(nn.NewGlobalAvgPool())
	m.Add(nn.NewFlatten())
	m.Add(nn.NewLinear("classifier", lastC, cfg.Classes, rng))
	return m
}

// basicBlock builds a ResNet basic block (two 3x3 convs) with an
// optional projection shortcut.
func basicBlock(name string, inC, outC, stride int, conv ConvFactory, rng *rand.Rand) nn.Layer {
	main := nn.NewSequential(name+".main",
		conv(name+".conv1", inC, outC, 3, stride, 1, rng),
		nn.NewBatchNorm2D(name+".bn1", outC),
		nn.NewReLU(),
		conv(name+".conv2", outC, outC, 3, 1, 1, rng),
		nn.NewBatchNorm2D(name+".bn2", outC),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = nn.NewSequential(name+".down",
			conv(name+".downconv", inC, outC, 1, stride, 0, rng),
			nn.NewBatchNorm2D(name+".downbn", outC),
		)
	}
	return nn.NewSequential(name,
		nn.NewResidual(name+".res", main, shortcut),
		nn.NewReLU(),
	)
}

// bottleneckBlock builds a ResNet bottleneck block (1x1-3x3-1x1 with
// 4x expansion).
func bottleneckBlock(name string, inC, midC, stride int, conv ConvFactory, rng *rand.Rand) nn.Layer {
	outC := midC * 4
	main := nn.NewSequential(name+".main",
		conv(name+".conv1", inC, midC, 1, 1, 0, rng),
		nn.NewBatchNorm2D(name+".bn1", midC),
		nn.NewReLU(),
		conv(name+".conv2", midC, midC, 3, stride, 1, rng),
		nn.NewBatchNorm2D(name+".bn2", midC),
		nn.NewReLU(),
		conv(name+".conv3", midC, outC, 1, 1, 0, rng),
		nn.NewBatchNorm2D(name+".bn3", outC),
	)
	var shortcut nn.Layer
	if stride != 1 || inC != outC {
		shortcut = nn.NewSequential(name+".down",
			conv(name+".downconv", inC, outC, 1, stride, 0, rng),
			nn.NewBatchNorm2D(name+".downbn", outC),
		)
	}
	return nn.NewSequential(name,
		nn.NewResidual(name+".res", main, shortcut),
		nn.NewReLU(),
	)
}

// resnetPlans maps depth to (block counts, bottleneck?).
var resnetPlans = map[int]struct {
	counts     [4]int
	bottleneck bool
}{
	18: {[4]int{2, 2, 2, 2}, false},
	34: {[4]int{3, 4, 6, 3}, false},
	50: {[4]int{3, 4, 6, 3}, true},
}

// ResNet builds the CIFAR adaptation of ResNet-18/34/50: a 3x3 stem
// (no initial downsampling), four stages with strides 1,2,2,2, global
// average pooling, and a linear classifier. Stage strides that would
// collapse the spatial size are reduced to 1, so reduced-resolution
// inputs remain valid.
func ResNet(depth int, cfg Config) *nn.Sequential {
	plan, ok := resnetPlans[depth]
	if !ok {
		panic(fmt.Sprintf("models: unsupported ResNet depth %d", depth))
	}
	rng := cfg.rng()
	conv := cfg.conv()
	stem := cfg.scale(64)
	m := nn.NewSequential(fmt.Sprintf("resnet%d", depth),
		conv("stem", 3, stem, 3, 1, 1, rng),
		nn.NewBatchNorm2D("stembn", stem),
		nn.NewReLU(),
	)
	widths := [4]int{cfg.scale(64), cfg.scale(128), cfg.scale(256), cfg.scale(512)}
	inC := stem
	hw := cfg.InputHW
	for stage := 0; stage < 4; stage++ {
		for b := 0; b < plan.counts[stage]; b++ {
			stride := 1
			if stage > 0 && b == 0 && hw >= 2 {
				stride = 2
				hw /= 2
			}
			name := fmt.Sprintf("s%db%d", stage+1, b+1)
			if plan.bottleneck {
				m.Add(bottleneckBlock(name, inC, widths[stage], stride, conv, rng))
				inC = widths[stage] * 4
			} else {
				m.Add(basicBlock(name, inC, widths[stage], stride, conv, rng))
				inC = widths[stage]
			}
		}
	}
	m.Add(nn.NewGlobalAvgPool())
	m.Add(nn.NewFlatten())
	m.Add(nn.NewLinear("classifier", inC, cfg.Classes, rng))
	return m
}

// ByKind constructs one of the evaluation architectures by its
// canonical name (see Kinds). It is the single authority on the
// name-to-builder mapping, shared by the experiment driver and the
// distributed job spec so a coordinator and its workers can never
// disagree on what a kind means.
func ByKind(kind string, cfg Config) (*nn.Sequential, error) {
	switch kind {
	case "lenet":
		return LeNet(cfg), nil
	case "vgg11":
		return VGG(11, cfg), nil
	case "vgg16":
		return VGG(16, cfg), nil
	case "vgg19":
		return VGG(19, cfg), nil
	case "resnet18":
		return ResNet(18, cfg), nil
	case "resnet34":
		return ResNet(34, cfg), nil
	case "resnet50":
		return ResNet(50, cfg), nil
	default:
		return nil, fmt.Errorf("models: unknown model kind %q (know %v)", kind, Kinds())
	}
}

// Kinds lists the canonical model-kind names ByKind accepts, in the
// order the paper's evaluation introduces them.
func Kinds() []string {
	return []string{"lenet", "vgg11", "vgg16", "vgg19", "resnet18", "resnet34", "resnet50"}
}

// Package retrain_test holds the go-test benchmarks a paper table or
// figure needs: one per table and figure, the ablations DESIGN.md
// calls out, and four setup costs (product LUT build, netlist power,
// synthetic data, fault sensitivity). The kernels, layers and training
// steps are timed by cmd/benchkernels, whose rows are committed in
// BENCH_kernels.json and gated by scripts/benchdiff.
//
// Table/figure benches run the corresponding experiment end-to-end at
// test scale; the cmd tools run the same code at larger scales (see
// EXPERIMENTS.md for recorded results and paper-vs-measured deltas):
//
//	BenchmarkTableI_*   <-> cmd/amchar
//	BenchmarkTableII_*  <-> cmd/retrain
//	BenchmarkFig3_*     <-> cmd/gradviz
//	BenchmarkFig5_*     <-> cmd/tradeoff
//	BenchmarkFig6_*     <-> cmd/curves
//	BenchmarkHWS_*      <-> cmd/sweephws
//	BenchmarkAblation_* <-> cmd/ablate
package retrain_test

import (
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/errmetrics"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/mulsynth"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// ---- Table I: multiplier characterization ---------------------------

// BenchmarkTableI_ErrorMetrics measures the exhaustive ER/NMED/MaxED
// enumeration over the whole registry (the right half of Table I).
func BenchmarkTableI_ErrorMetrics(b *testing.B) {
	reg := appmult.Registry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range reg {
			_ = errmetrics.Exhaustive(e.Mult.Bits(), e.Mult.Mul)
		}
	}
}

// BenchmarkTableI_Hardware measures netlist synthesis + area/delay/
// power analysis over the registry (the left half of Table I).
func BenchmarkTableI_Hardware(b *testing.B) {
	lib := tech.ASAP7()
	opt := circuit.PowerOptions{Vectors: 256, Seed: 1}
	reg := appmult.Registry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range reg {
			_ = e.Hardware(lib, opt)
		}
	}
}

// ---- Table II: retraining comparison --------------------------------

func benchTableIIRow(b *testing.B, mult, model string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := train.TableII([]string{mult}, []string{model}, 4, train.TinyScale, 1, nil, train.CompareOptions{})[0]
		if r.STE.FinalTop1() == 0 && r.Ours.FinalTop1() == 0 {
			b.Fatal("degenerate retraining result")
		}
	}
}

// BenchmarkTableII_VGG19 runs one Table II VGG19 row (QAT reference +
// STE retraining + difference retraining) at test scale.
func BenchmarkTableII_VGG19(b *testing.B) { benchTableIIRow(b, "mul7u_rm6", "vgg19") }

// BenchmarkTableII_ResNet18 runs one Table II ResNet18 row at test
// scale.
func BenchmarkTableII_ResNet18(b *testing.B) { benchTableIIRow(b, "mul8u_rm8", "resnet18") }

// ---- Fig. 3: gradient construction ----------------------------------

// BenchmarkFig3_DifferenceTables measures building the full
// difference-based gradient LUT pair for the Fig. 3 multiplier.
func BenchmarkFig3_DifferenceTables(b *testing.B) {
	e, _ := appmult.Lookup("mul7u_rm6")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = gradient.Difference(e.Mult.Name(), e.Mult.Bits(), 4, e.Mult.Mul)
	}
}

// BenchmarkFig3_SmoothRow measures the Eq. (4) sliding-window smoothing
// of a single multiplier row.
func BenchmarkFig3_SmoothRow(b *testing.B) {
	e, _ := appmult.Lookup("mul7u_rm6")
	row := make([]uint32, 128)
	for x := range row {
		row[x] = e.Mult.Mul(10, uint32(x))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = gradient.SmoothRow(row, 4)
	}
}

// ---- Fig. 5: accuracy/power frontier ---------------------------------

// BenchmarkFig5_Frontier computes the normalized-power axis for both
// panels (all 7- and 8-bit registry multipliers) plus one retrained
// accuracy point at test scale.
func BenchmarkFig5_Frontier(b *testing.B) {
	lib := tech.ASAP7()
	opt := circuit.PowerOptions{Vectors: 256, Seed: 1}
	for i := 0; i < b.N; i++ {
		acc8, _ := appmult.Lookup("mul8u_acc")
		norm := acc8.Hardware(lib, opt).PowerUW
		for _, e := range appmult.Registry() {
			if e.Mult.Bits() == 6 {
				continue
			}
			if p := e.Hardware(lib, opt).PowerUW / norm; p <= 0 {
				b.Fatal("non-positive normalized power")
			}
		}
		r := train.TableII([]string{"mul7u_rm6"}, []string{"resnet18"}, 4, train.TinyScale, 1, nil, train.CompareOptions{})[0]
		if r.Ours.FinalTop1() < 0 {
			b.Fatal("bad accuracy")
		}
	}
}

// ---- Fig. 6: top-5 curves on the CIFAR-100 stand-in ------------------

// BenchmarkFig6_ResNet34Top5 runs the Fig. 6 experiment (mul6u_rm4,
// 100 classes, top-5 tracking) on ResNet34 at test scale.
func BenchmarkFig6_ResNet34Top5(b *testing.B) {
	sc := train.TinyScale
	sc.Train, sc.Test = 200, 100 // 100 classes need a few samples each
	for i := 0; i < b.N; i++ {
		r := train.TableII([]string{"mul6u_rm4"}, []string{"resnet34"}, 100, sc, 1, nil, train.CompareOptions{})[0]
		if len(r.Ours.TestTop5) != sc.Epochs {
			b.Fatal("missing top-5 trajectory")
		}
	}
}

// ---- HWS selection ----------------------------------------------------

// BenchmarkHWS_Selection runs the Section V-A HWS sweep (three
// candidates, LeNet) at test scale.
func BenchmarkHWS_Selection(b *testing.B) {
	e, _ := appmult.Lookup("mul6u_rm4")
	sc := train.Scale{HW: 8, Width: 0.08, Train: 60, Test: 30, Epochs: 2, BatchSize: 10, LR0: 6e-3}
	for i := 0; i < b.N; i++ {
		best := train.BestCell(train.SweepEstimators(e.Mult, nil, []int{1, 2, 4}, 4, sc, 1, nil))
		if best.HWS == 0 {
			b.Fatal("no HWS selected")
		}
	}
}

// ---- Ablations --------------------------------------------------------

// BenchmarkAblation_SmoothingOff compares table construction with and
// without smoothing (the RawDifference ablation) — the cost side of the
// Section III-A design choice.
func BenchmarkAblation_SmoothingOff(b *testing.B) {
	e, _ := appmult.Lookup("mul8u_rm8")
	b.Run("difference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = gradient.Difference(e.Mult.Name(), 8, 16, e.Mult.Mul)
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = gradient.RawDifference(e.Mult.Name(), 8, e.Mult.Mul)
		}
	})
}

// BenchmarkAblation_LUTvsOnTheFly quantifies why the backward pass uses
// precomputed gradient LUTs: one LUT gather versus recomputing the
// smoothed difference for a single operand pair on demand.
func BenchmarkAblation_LUTvsOnTheFly(b *testing.B) {
	e, _ := appmult.Lookup("mul7u_rm6")
	tbl := gradient.Difference(e.Mult.Name(), 7, 4, e.Mult.Mul)
	b.Run("lut", func(b *testing.B) {
		var acc float32
		for i := 0; i < b.N; i++ {
			dw, dx := tbl.At(uint32(i)&127, uint32(i>>7)&127)
			acc += dw + dx
		}
		_ = acc
	})
	b.Run("onthefly", func(b *testing.B) {
		row := make([]uint32, 128)
		var acc float64
		for i := 0; i < b.N; i++ {
			w := uint32(i) & 127
			for x := range row {
				row[x] = e.Mult.Mul(w, uint32(x))
			}
			g := gradient.DifferenceRow(row, 4)
			acc += g[int(uint32(i>>7)&127)]
		}
		_ = acc
	})
}

// BenchmarkAblation_HWSSweep builds difference tables across the
// candidate HWS values (the construction-cost side of Table I's last
// column).
func BenchmarkAblation_HWSSweep(b *testing.B) {
	e, _ := appmult.Lookup("mul8u_2NDH")
	for i := 0; i < b.N; i++ {
		for _, hws := range gradient.DefaultHWSCandidates {
			if hws > gradient.MaxHWS(8) {
				continue
			}
			_ = gradient.Difference(e.Mult.Name(), 8, hws, e.Mult.Mul)
		}
	}
}

// BenchmarkAblation_PerChannelQuant compares the forward cost of
// per-tensor vs per-channel weight quantization on the approximate
// convolution (the accuracy side is cmd/ablate -which perchannel).
func BenchmarkAblation_PerChannelQuant(b *testing.B) {
	e, _ := appmult.Lookup("mul8u_rm8")
	op := nn.STEOp(e.Mult)
	x := tensor.New(2, 8, 12, 12)
	fill(x)
	run := func(b *testing.B, pc bool) {
		layer := nn.NewApproxConv2D("c", 8, 16, 3, 1, 1, op, newRng(1))
		layer.PerChannel = pc
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = layer.Forward(x, true)
		}
	}
	b.Run("pertensor", func(b *testing.B) { run(b, false) })
	b.Run("perchannel", func(b *testing.B) { run(b, true) })
}

// ---- Setup costs -------------------------------------------------------
//
// What a run pays once, before any layer executes; cmd/benchkernels'
// committed rows time the kernels, layers and steps themselves.

// BenchmarkKernel_ProductLUTBuild measures building an 8-bit product
// LUT (64k entries), the per-multiplier setup cost of the framework.
func BenchmarkKernel_ProductLUTBuild(b *testing.B) {
	e, _ := appmult.Lookup("mul8u_2NDH")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = appmult.BuildLUT(e.Mult)
	}
}

// BenchmarkKernel_NetlistPower measures Monte-Carlo power estimation of
// the accurate 8-bit multiplier netlist.
func BenchmarkKernel_NetlistPower(b *testing.B) {
	n := mulsynth.BuildAccurate("acc8", 8)
	lib := tech.ASAP7()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = n.EstimatePower(lib, circuit.PowerOptions{Vectors: 64, Seed: 1})
	}
}

// BenchmarkKernel_SyntheticData measures synthetic dataset generation.
func BenchmarkKernel_SyntheticData(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = data.Synthetic(data.SynthConfig{Classes: 10, Train: 64, Test: 16, HW: 16, Seed: 1})
	}
}

// BenchmarkKernel_FaultSensitivity measures the stuck-at criticality
// sweep over a 5-bit accurate multiplier.
func BenchmarkKernel_FaultSensitivity(b *testing.B) {
	n := mulsynth.BuildAccurate("acc5", 5)
	for i := 0; i < b.N; i++ {
		_ = mulsynth.FaultSensitivity(n, 5, 256, 1)
	}
}

// ---- helpers -----------------------------------------------------------

func fill(t *tensor.Tensor) {
	for i := range t.Data {
		t.Data[i] = float32(i%13)/13 - 0.5
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Command benchkernels is the repository's one micro-benchmark command.
// It times the approximate-GEMM kernel stack and what is built on it,
// and writes ns/op, B/op and allocs/op per row — plus GOMAXPROCS, the
// dispatch path each GEMM row took and speedup summaries — to a JSON
// baseline. The rows, in order:
//
//   - at one wide shape: the dispatching forward GEMM, each forward tier
//     pinned (nn.Op.Pinned: arith, packed16), the dispatching backward
//     GEMM on both table families (general tables → fused gather, STE's
//     affine tables → affine) and the STE op pinned to fused — each
//     through nn.Op.ForwardGEMM / BackwardGEMM on the layers' k-major
//     operand, the forwardT / backwardT call an ApproxConv2D makes —,
//     the row-major reference kernels, and an ApproxConv2D
//     forward+backward step;
//   - at the shapes of the benchmark models' layers: approximate and
//     float conv steps on each backward tier, approximate forwards on the
//     arith row's pair and word kernels, the k-major byte im2col and
//     col2im, and the dW lane kernels alone;
//   - the host's gather rate (Probe_GatherDPS_64KiB, probe.go) and, at
//     the vgg11 GEMM shapes of the backward sweep rows, each dW and dX
//     sweep alone, in ns per table entry read and as a ratio to the probe
//     (a gather rate for the gather kernels only: from 2^B rows up the
//     fused dW rows read level tables, and the affine rows are float
//     GEMMs on one shared level table (dW) or one operand per weight
//     (dX), so there it only compares speeds);
//   - the passes between the GEMMs: the slice quantizer against its
//     scalar definition, the weights' min/max, and a step of ReLU, batch
//     norm and max pool;
//   - inference: single-image serving's skinny forward GEMMs on the
//     arith_skinny row next to packed16, and whole-model Predict at batch
//     1 and 8;
//   - the backward small-vs-fused pairs at the narrow, row-heavy shapes
//     of the training workloads, over dense and sparse upstream gradients
//     (the rows behind BackwardGEMM's sparse-gradient gate);
//   - the training step: train.Run's step (train.ShardedStep) at 1, 2
//     and 4 shards on a BN-free model and at 1 and 2 with a BatchNorm,
//     the solo step of reduced vgg11 under smoothdiff (the
//     retrain_vgg11_smoothdiff workload's step; its speed on two CPUs over
//     one is the worker pool's scaling) and the Adam step after it, and
//     the step of a Table II leg at the sweep's SmallScale shapes (vgg19
//     and resnet18 under mul8u_rm8's STE op);
//   - the two forward simulation styles the paper contrasts, on one
//     layer: gathering from the product LUT ([9]-[11]) and behavioural,
//     the multiplier per MAC ([12]);
//   - the paper's backward design choice, per operand pair: reading both
//     precomputed gradients from the LUTs (gradient.Tables.At) against
//     recomputing the smoothed difference row they were built from
//     (gradient.DifferenceRow).
//
// Rows that share operands form a group, and each group is built just
// before its rows run and dropped after them, so no row is timed on a
// heap or a scratch shaped by other groups' layers. A row that fails
// stops the command, named, before anything is written.
//
// The committed BENCH_kernels.json at the repository root is the
// current baseline; `make bench` re-measures, diffs against it with
// scripts/benchdiff (failing loudly on regressions), and promotes the
// new numbers.
//
// Usage:
//
//	benchkernels [-out BENCH_kernels.json] [-quick]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// shape is one GEMM: rows x k operands against outC x k weights.
type shape struct{ rows, outC, k int }

// wide is the historical kernel shape: batch 4 of 16x16x16 activations
// through a 3x3 16->32 conv, the shape of the Layer_ApproxConvStep row.
var wide = shape{rows: 1024, outC: 32, k: 144}

// gradSink keeps the gradient rows' results live.
var gradSink float64

// pw and px are the GEMM rows' weight and activation quantizers; pws is
// pw as the one-element slice ForwardGEMM and BackwardGEMM take.
var (
	pw  = quant.Calibrate(-1, 1, 7)
	pws = []quant.Params{pw}
	px  = quant.Calibrate(0, 2, 7)
)

// narrow lists the row-heavy early-layer GEMMs of the benchmark's
// training workloads with the share of dy that is nonzero there (1 in
// nzOf): behind a batch norm (vgg11, resnet18) the gradient is dense,
// behind ReLU + 2x2 max pool (lenet) at most a quarter survives and
// about an eighth does. Each is measured on the small path and on the
// fused tier; the dense lenet row and the sparse vgg11 row are the
// counterfactuals showing that density, not outC, moves the crossover.
var narrow = []struct {
	shape
	nzOf int
}{
	{shape{8192, 8, 27}, 1},  // vgg11 conv1
	{shape{2048, 16, 72}, 1}, // vgg11 conv2
	{shape{8192, 4, 75}, 1},
	{shape{8192, 4, 75}, 4},
	{shape{8192, 4, 75}, 8}, // lenet conv1
	{shape{8192, 8, 27}, 8},
}

type result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
	// NsElem is ns_op over the table entries the op gathers (or, on the
	// affine rows, evaluates in their place): the probe and sweep rows.
	NsElem float64 `json:"ns_per_elem,omitempty"`
}

type record struct {
	Note       string            `json:"note"`
	Multiplier string            `json:"multiplier"`
	Shape      string            `json:"shape"`
	MaxProcs   int               `json:"maxprocs"`
	Benchmarks map[string]result `json:"benchmarks"`
	// Paths records the dispatch tier each forward or backward benchmark
	// actually ran on (host-dependent: the arith tier needs AVX2, so a
	// forced-arith row can legitimately fall back elsewhere; forced
	// backward rows likewise fall back when the op lacks the tier).
	Paths    map[string]string  `json:"paths"`
	Speedups map[string]float64 `json:"speedups"`
}

// sweeps lists the GEMMs of reduced vgg11 (batch 32, 16x16 inputs, eighth
// width) that retrain_vgg11_smoothdiff runs on the backward sweep rows —
// conv2 to conv8; the last two share a shape — where each dW and dX
// sweep is measured alone, per table entry read, against the host's
// gather rate (probe.go). The fused dW sweep gathers only at 32 rows:
// from 2^7 rows up it reads level tables (nn's bwdDWTables).
var sweeps = []shape{{2048, 16, 72}, {512, 32, 144}, {512, 32, 288}, {128, 64, 288}, {128, 64, 576}, {32, 64, 576}}

// operands is one GEMM's inputs and outputs. One dy entry in nzOf is
// nonzero. xq, xClip and dx are (rows x k) in the reference kernels'
// row-major layout and (k x rows) in the blocked GEMMs' k-major one: the
// levels are random and no flag is set, so both readings time the same
// work.
type operands struct {
	shape
	xq, wq            []uint8
	xClip, wClip      []bool
	dy                []float32
	dst, dw, dx, gsum []float32
}

func newOperands(sh shape, nzOf int, rng *rand.Rand) *operands {
	o := &operands{shape: sh,
		xq: make([]uint8, sh.rows*sh.k), wq: make([]uint8, sh.outC*sh.k),
		xClip: make([]bool, sh.rows*sh.k), wClip: make([]bool, sh.outC*sh.k),
		dy:  make([]float32, sh.rows*sh.outC),
		dst: make([]float32, sh.rows*sh.outC), dw: make([]float32, sh.outC*sh.k),
		dx: make([]float32, sh.rows*sh.k), gsum: make([]float32, sh.outC)}
	for i := range o.xq {
		o.xq[i] = uint8(rng.Intn(128))
	}
	for i := range o.wq {
		o.wq[i] = uint8(rng.Intn(128))
	}
	for i := range o.dy {
		if rng.Intn(nzOf) == 0 {
			o.dy[i] = float32(rng.NormFloat64())
		}
	}
	return o
}

// loop is the benchmark body that calls fn b.N times, reporting allocs.
func loop(fn func()) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn()
		}
	}
}

// convStep is the row name benchmarking one conv layer
// forward+backward at the given layer and input geometry: an
// ApproxConv2D on op, or the float Conv2D when op is nil. pooled thins
// dy to what conv -> ReLU -> 2x2 max pool passes back: one position per
// 2x2 window, half of those zeroed, one nonzero in eight. touch bumps
// the weights' version every op, as an optimizer step does, so the
// layer rebuilds its weight-side state each time instead of reusing it.
func convStep(name string, op *nn.Op, inC, outC, k, n, hw int, pooled, touch bool, rng *rand.Rand) group {
	return one(name, func() func(b *testing.B) {
		var layer nn.Layer
		if op != nil {
			layer = nn.NewApproxConv2D("bench", inC, outC, k, 1, k/2, op, rng)
		} else {
			layer = nn.NewConv2D("bench", inC, outC, k, 1, k/2, rng)
		}
		x := tensor.New(n, inC, hw, hw)
		x.RandNormal(rng, 1)
		dy := tensor.New(layer.Forward(x, true).Shape...)
		dy.RandNormal(rng, 1)
		if pooled {
			for base := 0; base < len(dy.Data); base += hw * hw {
				for oy := 0; oy < hw; oy += 2 {
					for ox := 0; ox < hw; ox += 2 {
						// keep < 4: that position was the window's maximum;
						// otherwise the ReLU had zeroed it.
						keep := rng.Intn(8)
						for j, d := range [4]int{0, 1, hw, hw + 1} {
							if j != keep {
								dy.Data[base+oy*hw+ox+d] = 0
							}
						}
					}
				}
			}
		}
		weight := layer.Params()[0]
		return loop(func() {
			if touch {
				weight.Touch()
			}
			layer.Forward(x, true)
			layer.Backward(dy)
		})
	})
}

// convFwd is the row name benchmarking one ApproxConv2D forward on op
// at the given layer and input geometry (path, when set, is the
// dispatch tier it takes). touch bumps the weights' version first, as a
// training step's forward runs after the optimizer step: the layer
// rebuilds its weight-side state every op.
func convFwd(name, path string, op *nn.Op, inC, outC, k, n, hw int, touch bool, rng *rand.Rand) group {
	return func() []bench {
		layer := nn.NewApproxConv2D("bench", inC, outC, k, 1, k/2, op, rng)
		x := tensor.New(n, inC, hw, hw)
		x.RandNormal(rng, 1)
		weight := layer.Params()[0]
		return []bench{{name: name, path: path, fn: loop(func() {
			if touch {
				weight.Touch()
			}
			layer.Forward(x, true)
		})}}
	}
}

// stepModel is the sharded-step rows' approximate model, drawn from its
// own source, so every shard count computes the bit-identical gradient
// (see train.ShardedStep); bn puts a BatchNorm2D after its conv.
func stepModel(op *nn.Op, bn bool) *nn.Sequential {
	rng := rand.New(rand.NewSource(42))
	m := nn.NewSequential("bench", nn.NewApproxConv2D("c1", 3, 8, 3, 1, 1, op, rng))
	if bn {
		m.Add(nn.NewBatchNorm2D("bn1", 8))
	}
	return m.Add(nn.NewReLU()).Add(nn.NewMaxPool2D(2, 2)).Add(nn.NewFlatten()).
		Add(nn.NewApproxLinear("fc", 8*8*8, 10, op, rng))
}

// bench is one benchmark row. A GEMM row records the dispatch tier its
// op takes for the row's shape (forward) or dy (backward). A forced row
// runs an op pinned to a tier (nn.Op.Pinned), which falls back to the
// auto choice when the host or op cannot provide the tier — the
// recorded path makes that visible.
type bench struct {
	name, path string
	fn         func(b *testing.B)
	elems      int // table entries read per op, where the row reports ns per element
}

// group builds rows that share operands, when they are about to run.
type group func() []bench

// one is the group of the one row name that build builds.
func one(name string, build func() func(b *testing.B)) group {
	return func() []bench { return []bench{{name: name, fn: build()}} }
}

// fwd is the row timing fop's forward GEMM on o in scratch s.
func fwd(s *nn.KernelScratch, name string, fop *nn.Op, o *operands) bench {
	bias := make([]float32, o.outC)
	return bench{name: name, path: fop.ForwardPath(o.rows, o.outC, o.k), fn: loop(func() {
		fop.ForwardGEMM(s, o.dst, o.xq, o.wq, o.rows, o.outC, o.k, pws, px, bias)
	})}
}

// bwd is the row timing bop's backward GEMM on o in scratch s.
func bwd(s *nn.KernelScratch, name string, bop *nn.Op, o *operands) bench {
	return bench{name: name, path: bop.BackwardPath(o.dy), fn: loop(func() {
		bop.BackwardGEMM(s, o.dw, o.dx, o.gsum, o.dy, o.xq, o.wq, o.xClip, o.wClip, o.rows, o.outC, o.k, pws, px)
	})}
}

// speedup is one entry of the record's speedups: num's time over den's,
// per op or, with perElem, per table entry read.
type speedup struct {
	key, num, den string
	perElem       bool
}

// run builds each group in turn and measures its rows into rec, then
// adds the speedups and writes rec to out as JSON. A row that fails —
// b.Fatal, or a panic in its body — stops it, named, before anything is
// written.
func run(rec *record, groups []group, speedups []speedup, out string) error {
	for _, g := range groups {
		if err := measure(rec, g()); err != nil {
			return err
		}
	}
	for _, q := range speedups {
		num, den := rec.Benchmarks[q.num], rec.Benchmarks[q.den]
		v := num.NsOp / den.NsOp
		if q.perElem {
			v = num.NsElem / den.NsElem
		}
		rec.Speedups[q.key] = v
		fmt.Printf("%-44s %.2fx\n", q.key+":", v)
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

// measure times one group's rows into rec.
func measure(rec *record, benches []bench) error {
	for _, bm := range benches {
		r := testing.Benchmark(func(b *testing.B) {
			defer func() {
				if p := recover(); p != nil {
					b.Fatal(p)
				}
			}()
			bm.fn(b)
		})
		if r.N == 0 {
			return fmt.Errorf("row %s failed", bm.name)
		}
		res := result{
			NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesOp:  r.AllocedBytesPerOp(),
			AllocsOp: r.AllocsPerOp(),
		}
		note := ""
		if bm.elems > 0 {
			res.NsElem = res.NsOp / float64(bm.elems)
			note = fmt.Sprintf("  %.3f ns/elem", res.NsElem)
		}
		if bm.path != "" {
			rec.Paths[bm.name] = bm.path
			note += "  path=" + bm.path
		}
		rec.Benchmarks[bm.name] = res
		fmt.Printf("%-40s %12.0f ns/op %10d B/op %6d allocs/op%s\n", bm.name, res.NsOp, res.BytesOp, res.AllocsOp, note)
	}
	return nil
}

// check ends the command on a setup or recording error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchkernels:", err)
		os.Exit(1)
	}
}

// lookup returns the registry entry of the named multiplier.
func lookup(name string) appmult.Entry {
	e, ok := appmult.Lookup(name)
	if !ok {
		check(fmt.Errorf("%s missing from registry", name))
	}
	return e
}

func main() {
	out := flag.String("out", "BENCH_kernels.json", "output JSON path")
	quick := flag.Bool("quick", false, "short benchtime (noisier, for CI smoke reports)")
	testing.Init()
	flag.Parse()
	benchtime := "1s"
	if *quick {
		benchtime = "100ms"
	}
	check(flag.Set("test.benchtime", benchtime))

	e := lookup("mul7u_rm6")
	op := nn.DifferenceOp(e.Mult, 6)
	// STE's gradient tables are verified row-affine, so this op reaches
	// the backward affine tier; the difference op above exercises the
	// fused gather tier.
	steOp := nn.STEOp(e.Mult)
	e8 := lookup("mul8u_rm8")
	// Its coefficients exceed the madd operand: the arith row's word kernel.
	op8 := nn.DifferenceOp(e8.Mult, e8.HWS)

	rng := rand.New(rand.NewSource(42))
	speedups := []speedup{
		{key: "forward_auto_vs_ref", num: "Kernel_GEMMForwardRef", den: "Kernel_GEMMForwardAuto"},
		{key: "forward_arith_vs_packed16", num: "Kernel_GEMMForwardPacked16", den: "Kernel_GEMMForwardArith"},
		{key: "backward_fused_vs_ref", num: "Kernel_GEMMBackwardRef", den: "Kernel_GEMMBackwardFused"},
		{key: "backward_affine_vs_ref", num: "Kernel_GEMMBackwardRef", den: "Kernel_GEMMBackwardAffine"},
	}
	groups := []group{
		func() []bench {
			var s nn.KernelScratch
			w := newOperands(wide, 1, rng)
			refBias := make([]float32, w.outC)
			return []bench{
				fwd(&s, "Kernel_GEMMForwardAuto", op, w),
				fwd(&s, "Kernel_GEMMForwardArith", op.Pinned(nn.FwdPathArith, ""), w),
				fwd(&s, "Kernel_GEMMForwardPacked16", op.Pinned(nn.FwdPathPacked16, ""), w),
				{name: "Kernel_GEMMForwardRef", fn: loop(func() {
					op.ForwardGEMMRef(w.xq, w.wq, w.rows, w.outC, w.k, pw, px, refBias)
				})},
				// The general-table backward (difference estimator, auto →
				// fused), the affine-family backward (STE, auto → affine),
				// and the STE op forced onto the fused gather kernels — the
				// affine-vs-gather gap on identical operands.
				bwd(&s, "Kernel_GEMMBackwardFused", op, w),
				bwd(&s, "Kernel_GEMMBackwardAffine", steOp, w),
				bwd(&s, "Kernel_GEMMBackwardFusedForced", steOp.Pinned("", nn.BwdPathFused), w),
				{name: "Kernel_GEMMBackwardRef", fn: loop(func() {
					op.BackwardGEMMRef(w.dy, w.xq, w.wq, w.xClip, w.wClip, w.rows, w.outC, w.k, pw, px)
				})},
			}
		},
		convStep("Layer_ApproxConvStep", op, 16, 32, 3, 4, 16, false, false, rng),
		// vgg11's first conv on a benchmark batch: 8 images of 3x32x32
		// into 8 channels (rows=8192 outC=8 k=27), fused tier.
		convStep("Layer_ApproxConvStep_VGG11Conv1", op, 3, 8, 3, 8, 32, false, false, rng),
		// vgg11's conv7 at reduced scale on a benchmark batch: 32 images of
		// 64x1x1 into 64 channels, 3x3/pad 1 (rows=32 outC=64 k=576), where
		// eight of the nine taps see only padding; weights touched every op.
		convStep("Layer_ApproxConvStep_VGG11Conv7", op, 64, 64, 3, 32, 1, false, true, rng),
		// resnet18's stem and a stage-1 conv on one shard's half batch, 16
		// images of 16x16 (rows=4096 outC=8, k=27 and 72), STE: affine.
		convStep("Layer_ApproxConvStep_ResNet18Stem", steOp, 3, 8, 3, 16, 16, false, false, rng),
		convStep("Layer_ApproxConvStep_ResNet18Stage1", steOp, 8, 8, 3, 16, 16, false, false, rng),
		// lenet's second conv on one worker's half batch, 16 images of
		// 4x8x8 (rows=1024 outC=4 k=100), behind ReLU + 2x2 pool: small.
		convStep("Layer_ApproxConvStep_LeNetConv2", op, 4, 4, 5, 16, 8, true, false, rng),
		// Forwards alone, on the arith row: lenet's first conv, 32 images of
		// 3x16x16 into 4 channels, 5x5/pad 2 (rows=8192 outC=4 k=75), and
		// reduced vgg11's conv4, 32 images of 32x4x4 into 32 channels
		// (rows=512 outC=32 k=288), on the pair kernel and, under
		// mul8u_rm8, the word kernel.
		convFwd("Layer_ApproxConvFwd_LeNetConv1", "", op, 3, 4, 5, 32, 16, true, rng),
		convFwd("Layer_ApproxConvFwd_VGG11Conv4", "", op, 32, 32, 3, 32, 4, true, rng),
		convFwd("Layer_ApproxConvFwd_VGG11Conv4_mul8u_rm8", "", op8, 32, 32, 3, 32, 4, true, rng),
		// The float Conv2D at those geometries and at reduced vgg11's
		// conv5, 32 images of 32x2x2 into 64 channels (rows=128 k=288).
		convStep("Layer_FloatConvStep_VGG11Conv1", nil, 3, 8, 3, 8, 32, false, false, rng),
		convStep("Layer_FloatConvStep_ResNet18Stem", nil, 3, 8, 3, 16, 16, false, false, rng),
		convStep("Layer_FloatConvStep_ResNet18Stage1", nil, 8, 8, 3, 16, 16, false, false, rng),
		convStep("Layer_FloatConvStep_VGG11Conv5", nil, 32, 64, 3, 32, 2, false, false, rng),
		convStep("Layer_FloatConvStep_LeNetConv2", nil, 4, 4, 5, 16, 8, true, false, rng),
	}
	// The k-major im2col and col2im at the vgg11-conv1 and resnet18-stem
	// geometries, the byte im2col the approximate layers run.
	for _, g := range []struct {
		label string
		n, hw int
	}{{"VGG11Conv1", 8, 32}, {"ResNet18Stem", 16, 16}} {
		groups = append(groups, func() []bench {
			geom := tensor.Geometry(3, g.hw, g.hw, 8, 3, 3, 1, 1)
			rows, k := g.n*g.hw*g.hw, geom.K()
			lv := make([]uint8, g.n*3*g.hw*g.hw)
			for i := range lv {
				lv[i] = uint8(rng.Intn(128))
			}
			colsT, dcolsT := make([]uint8, k*rows), make([]float32, k*rows)
			for i := range dcolsT {
				dcolsT[i] = float32(rng.NormFloat64())
			}
			dx := make([]float32, len(lv))
			var im2colT tensor.Im2ColTJob[uint8]
			var col2imT tensor.Col2ImTJob
			return []bench{
				{name: "Kernel_Im2ColT_" + g.label, fn: loop(func() { im2colT.Run(colsT, lv, g.n, geom, 64) })},
				{name: "Kernel_Col2ImT_" + g.label, fn: loop(func() { col2imT.Run(dx, dcolsT, g.n, geom) })}}
		})
	}
	// The dW lane kernels alone (gradient scan + dW sweep on a k-major
	// operand) at the resnet18 stage-1 GEMM: STE on the affine row's
	// shared level table, the difference op on the fused row's level
	// tables (4096 rows is past 2^B).
	groups = append(groups, func() []bench {
		var s nn.KernelScratch
		o := newOperands(shape{4096, 8, 72}, 1, rng)
		var rows []bench
		for _, d := range []struct {
			name string
			op   *nn.Op
		}{{"Kernel_BwdDWAffine_r4096_oc8_k72", steOp}, {"Kernel_BwdDWGather_r4096_oc8_k72", op}} {
			rows = append(rows, bench{name: d.name, path: d.op.BackwardPath(o.dy), fn: loop(func() {
				// xq's bytes read as a (k x rows) matrix: random levels
				// either way.
				d.op.BackwardSweep(&s, o.dw, nil, o.gsum, o.dy, o.xq, o.wq, o.wClip, o.rows, o.outC, o.k, pw, px)
			})})
		}
		return rows
	})
	// The host's gather rate, then each backward sweep alone at the vgg11
	// shapes: one untimed scan of dy, then only the dW or only the dX
	// sweep per op, reading what the scan left in the arena.
	groups = append(groups, func() []bench {
		probe := newGatherProbe(rng)
		return []bench{{name: "Probe_GatherDPS_64KiB", fn: loop(probe.run), elems: probe.elems()}}
	})
	// Both sides of these speedups are ns per element: 1.0 is the host's
	// gather rate (for the rows that gather), and gather over affine at one
	// shape is what the table lookup costs.
	sweepKinds := []struct {
		key, name string
		op        *nn.Op
		dw        bool // the dW sweep, else the dX one
	}{
		{"bwd_dx_gather", "Kernel_BwdDXGather_", op, false}, {"bwd_dx_affine", "Kernel_BwdDXAffine_", steOp, false},
		{"bwd_dw_gather", "Kernel_BwdDWGather_", op, true}, {"bwd_dw_affine", "Kernel_BwdDWAffine_", steOp, true},
	}
	for _, sh := range sweeps {
		label := fmt.Sprintf("r%d_oc%d_k%d", sh.rows, sh.outC, sh.k)
		for _, d := range sweepKinds {
			speedups = append(speedups, speedup{key: d.key + "_vs_probe_" + label, num: "Probe_GatherDPS_64KiB", den: d.name + label, perElem: true})
		}
		groups = append(groups, func() []bench {
			var s nn.KernelScratch
			o := newOperands(sh, 1, rng)
			var rows []bench
			for _, d := range sweepKinds {
				dw, dx := []float32(nil), o.dx
				if d.dw {
					dw, dx = o.dw, nil
				}
				rows = append(rows, bench{name: d.name + label, path: d.op.BackwardPath(o.dy), elems: sh.rows * sh.outC * sh.k,
					fn: func(b *testing.B) {
						d.op.BackwardSweep(&s, nil, nil, o.gsum, o.dy, o.xq, o.wq, o.wClip, o.rows, o.outC, o.k, pw, px)
						b.ResetTimer()
						loop(func() {
							d.op.BackwardSweep(&s, dw, dx, nil, nil, o.xq, o.wq, o.wClip, o.rows, o.outC, o.k, pw, px)
						})(b)
					}})
			}
			return rows
		})
	}
	// The passes between the GEMMs. The slice quantizer on one 64k-element
	// tensor next to the scalar Quantize/Clipped loop that defines it, the
	// weight calibration's min/max over as many values as reduced vgg11
	// has parameters (145,898), and a forward+backward step of each glue
	// layer on one shard's resnet18-stage-1 activation (16 images of
	// 8x16x16).
	groups = append(groups, func() []bench {
		qData := tensor.New(1 << 16)
		qData.RandNormal(rng, 1)
		qLv, qClip := make([]uint8, len(qData.Data)), make([]bool, len(qData.Data))
		mmData := tensor.New(145898)
		mmData.RandNormal(rng, 0.1)
		return []bench{
			{name: "Kernel_MinMax_146k", fn: loop(func() { tensor.MinMax(mmData.Data) })},
			{name: "Kernel_QuantizeInto_64k", fn: loop(func() { px.QuantizeInto(qLv, qClip, qData.Data) })},
			{name: "Kernel_QuantizeInto_64k_Scalar", fn: loop(func() {
				for i, v := range qData.Data {
					qLv[i], qClip[i] = uint8(px.Quantize(v)), px.Clipped(v)
				}
			})}}
	})
	for _, g := range []struct {
		name  string
		layer func() nn.Layer
	}{
		{"Layer_ReLUStep", func() nn.Layer { return nn.NewReLU() }},
		{"Layer_BatchNormStep", func() nn.Layer { return nn.NewBatchNorm2D("bench", 8) }},
		{"Layer_MaxPoolStep", func() nn.Layer { return nn.NewMaxPool2D(2, 2) }},
	} {
		groups = append(groups, one(g.name, func() func(b *testing.B) {
			layer := g.layer()
			x := tensor.New(16, 8, 16, 16)
			x.RandNormal(rng, 1)
			dy := tensor.New(layer.Forward(x, true).Shape...)
			dy.RandNormal(rng, 1)
			return loop(func() {
				layer.Forward(x, true)
				layer.Backward(dy)
			})
		}))
	}
	// Inference. The skinny GEMMs of single-image serving — vgg11's
	// 64-channel 3x3 convs on 4x4, 2x2 and 1x1 planes — on the arith_skinny
	// row and pinned to packed16, the row they ran on before it existed;
	// through the adapter, so each call also derives the weight side (level
	// sums, k-major copy) a layer keeps per weight version. Then whole-model
	// Predict at the benchmark's reduced scale (16x16 inputs, eighth width),
	// which does keep it: batch 1 is a fleet cache miss, batch 8 a busy
	// replica's batch.
	for _, rows := range []int{1, 4, 16} {
		label := fmt.Sprintf("r%d_oc64_k576", rows)
		speedups = append(speedups, speedup{key: "forward_arith_skinny_vs_packed16_" + label,
			num: "Kernel_FwdPacked16_" + label, den: "Kernel_FwdArith_" + label})
		groups = append(groups, func() []bench {
			var s nn.KernelScratch
			o := newOperands(shape{rows, 64, 576}, 1, rng)
			return []bench{
				fwd(&s, "Kernel_FwdArith_"+label, steOp, o),
				fwd(&s, "Kernel_FwdPacked16_"+label, steOp.Pinned(nn.FwdPathPacked16, ""), o)}
		})
	}
	for _, kind := range []string{"vgg11", "resnet18", "lenet"} {
		groups = append(groups, func() []bench {
			m, err := models.ByKind(kind, models.Config{Classes: 10, InputHW: 16, Width: 0.125, Conv: models.ApproxConv(steOp), Seed: 3})
			check(err)
			var rows []bench
			for _, n := range []int{1, 8} {
				x := tensor.New(n, 3, 16, 16)
				x.RandNormal(rng, 1)
				rows = append(rows, bench{name: fmt.Sprintf("Model_Predict_%s_b%d", kind, n), fn: loop(func() { m.Predict(x) })})
			}
			return rows
		})
	}
	smallOp, fusedOp := op.Pinned("", nn.BwdPathSmall), op.Pinned("", nn.BwdPathFused)
	for _, n := range narrow {
		label := fmt.Sprintf("r%d_oc%d_k%d_nz1of%d", n.rows, n.outC, n.k, n.nzOf)
		small, fused := "Kernel_BwdSmall_"+label, "Kernel_BwdFused_"+label
		speedups = append(speedups, speedup{key: "backward_fused_vs_small_" + label, num: small, den: fused})
		groups = append(groups, func() []bench {
			var s nn.KernelScratch
			o := newOperands(n.shape, n.nzOf, rng)
			return []bench{bwd(&s, small, smallOp, o), bwd(&s, fused, fusedOp, o)}
		})
	}
	// The training step, on a batch of 32 images of 3x16x16 (its own
	// source, seed 7), 10 classes: the sharded step (then its Broadcast)
	// on a fresh stepModel per shard count, BatchNorm-free and with one,
	// the solo step of reduced vgg11 under smoothdiff, and Adam over that
	// vgg11's parameters. The first layer computes no input gradient.
	tx := tensor.New(32, 3, 16, 16)
	tx.RandNormal(rand.New(rand.NewSource(7)), 1)
	ty := make([]int, 32)
	for i := range ty {
		ty[i] = i % 10
	}
	for _, r := range []struct {
		name string
		p    int
		bn   bool
	}{
		{"Train_ApproxStepSharded_P1", 1, false}, {"Train_ApproxStepSharded_P2", 2, false}, {"Train_ApproxStepSharded_P4", 4, false},
		{"Train_ApproxStepSharded_BN_P1", 1, true}, {"Train_ApproxStepSharded_BN_P2", 2, true},
	} {
		groups = append(groups, one(r.name, func() func(b *testing.B) {
			st := train.NewShardedStep(stepModel(op, r.bn), train.ShardedConfig{Shards: r.p})
			return loop(func() {
				st.Step(tx, ty)
				st.Broadcast()
			})
		}))
	}
	sdOp, err := train.OpForSpec(e, "smoothdiff")
	check(err)
	vggModel := func() *nn.Sequential {
		return train.BuildModel("vgg11", 10, train.ReducedScale, models.ApproxConv(sdOp), 42)
	}
	numel := 0
	for _, p := range vggModel().Params() {
		numel += p.Value.Numel()
	}
	groups = append(groups, func() []bench {
		vgg := vggModel()
		vggParams, adam := vgg.Params(), optim.NewAdam()
		return []bench{
			{name: "Train_SoloStep_VGG11", fn: loop(func() {
				nn.ZeroGrads(vgg)
				_, grad := nn.SoftmaxCrossEntropy(vgg.Forward(tx, true), ty)
				vgg.Backward(grad)
			})},
			{name: "Optim_AdamStep_VGG11", fn: loop(func() { adam.Step(vggParams, 1e-3) })}}
	})
	// A Table II leg's step at the sweep's shapes: one forward+backward of
	// vgg19 and resnet18 at SmallScale, on a batch of 24 images of
	// 3x12x12 (its own source, seed 9), under mul8u_rm8's STE op, no
	// optimizer.
	legOp, err := train.OpForSpec(e8, "ste")
	check(err)
	sc := train.SmallScale
	lx := tensor.New(sc.BatchSize, 3, sc.HW, sc.HW)
	lx.RandNormal(rand.New(rand.NewSource(9)), 1)
	ly := make([]int, sc.BatchSize)
	for i := range ly {
		ly[i] = i % 10
	}
	for _, r := range []struct{ name, kind string }{
		{"Train_Step_VGG19_Small", "vgg19"}, {"Train_Step_ResNet18_Small", "resnet18"},
	} {
		groups = append(groups, one(r.name, func() func(b *testing.B) {
			m := train.BuildModel(r.kind, 10, sc, models.ApproxConv(legOp), 42)
			return loop(func() {
				nn.ZeroGrads(m)
				_, grad := nn.SoftmaxCrossEntropy(m.Forward(lx, true), ly)
				m.Backward(grad)
			})
		}))
	}
	// The forward simulation styles on one layer, its own source (seed 1):
	// 2 images of 8x12x12 into 16 channels, 3x3/pad 1 (rows=288 outC=16
	// k=72), mul8u_2NDH under STE tables, weights not touched — gathering
	// from the product LUT (pinned to packed16: auto-dispatch takes the
	// arith row, faster still) and behavioural.
	e2 := lookup("mul8u_2NDH")
	lutOp := nn.NewOp(e2.Mult, gradient.STE(8)).Pinned(nn.FwdPathPacked16, "")
	behOp := nn.BehavioralOp(e2.Mult, gradient.STE(8))
	groups = append(groups,
		convFwd("Layer_ApproxConvFwd_LUT_mul8u_2NDH", lutOp.ForwardPath(288, 16, 72), lutOp, 8, 16, 3, 2, 12, false, rand.New(rand.NewSource(1))),
		convFwd("Layer_ApproxConvFwd_Behavioral_mul8u_2NDH", behOp.ForwardPath(288, 16, 72), behOp, 8, 16, 3, 2, 12, false, rand.New(rand.NewSource(1))))
	// mul7u_rm6's HWS-4 tables, walking every (W, X) pair: the LUT row
	// reads both gradients, the recompute row multiplies out W's row and
	// smooths it (Eqs. 4-6) for the one it needs.
	groups = append(groups, func() []bench {
		grads := gradient.Difference(e.Mult.Name(), 7, 4, e.Mult.Mul)
		return []bench{
			{name: "Kernel_GradLUTGather_mul7u_rm6", fn: func(b *testing.B) {
				var acc float32
				for i := 0; i < b.N; i++ {
					dw, dx := grads.At(uint32(i)&127, uint32(i>>7)&127)
					acc += dw + dx
				}
				gradSink = float64(acc)
			}},
			{name: "Kernel_GradRecompute_mul7u_rm6", fn: func(b *testing.B) {
				row, acc := make([]uint32, 128), 0.0
				for i := 0; i < b.N; i++ {
					w := uint32(i) & 127
					for x := range row {
						row[x] = e.Mult.Mul(w, uint32(x))
					}
					acc += gradient.DifferenceRow(row, 4)[uint32(i>>7)&127]
				}
				gradSink = acc
			}}}
	})
	speedups = append(speedups,
		speedup{key: "grad_lut_vs_recompute", num: "Kernel_GradRecompute_mul7u_rm6", den: "Kernel_GradLUTGather_mul7u_rm6"},
		speedup{key: "sharded_p2_vs_p1", num: "Train_ApproxStepSharded_P1", den: "Train_ApproxStepSharded_P2"},
		speedup{key: "sharded_p4_vs_p1", num: "Train_ApproxStepSharded_P1", den: "Train_ApproxStepSharded_P4"},
		speedup{key: "sharded_bn_p2_vs_p1", num: "Train_ApproxStepSharded_BN_P1", den: "Train_ApproxStepSharded_BN_P2"},
		speedup{key: "forward_lut_vs_behavioral", num: "Layer_ApproxConvFwd_Behavioral_mul8u_2NDH", den: "Layer_ApproxConvFwd_LUT_mul8u_2NDH"})

	rec := record{
		Note: "micro-benchmark baseline; regenerate with `make bench`. The Kernel_GEMM* rows but the *Ref ones run " +
			"the layers' k-major contract: the forwardT / backwardT call an ApproxConv2D makes, with no transpose. " +
			"The Kernel_BwdDWGather_* rows " +
			"from 128 rows up time the fused row's level tables, not VGATHERDPS, and the Kernel_Bwd{DW,DX}Affine_* " +
			"rows time the affine row's float-GEMM kernels (one shared dW level table, one dX operand per weight), " +
			"so their bwd_dw_gather_vs_probe and bwd_d{w,x}_affine_vs_probe ratios are speeds relative to the " +
			"gather probe, not gather rates. Sharded speedups need physical " +
			"cores: with maxprocs=1 the P>1 rows measure pure coordination overhead, not parallelism.",
		Multiplier: op.Label,
		Shape: fmt.Sprintf("rows=%d outC=%d k=%d; Kernel_Bwd*_r*, Kernel_Fwd*_r*, *_VGG11Conv1, *_VGG11Conv4*, *_VGG11Conv5, "+
			"*_VGG11Conv7, *_ResNet18*, *_LeNetConv1, *_LeNetConv2, *_mul8u_2NDH, Model_Predict_* and Train_* rows carry their own "+
			"shape, Kernel_Grad*_mul7u_rm6 rows time one operand pair; Train_SoloStep_VGG11 runs vgg11 width %g under %s, Optim_AdamStep_VGG11 Adam over its %d parameters; "+
			"Train_Step_*_Small run %dx%d inputs, width %g, batch %d under %s",
			wide.rows, wide.outC, wide.k, train.ReducedScale.Width, sdOp.Label, numel, sc.HW, sc.HW, sc.Width, sc.BatchSize, legOp.Label),
		MaxProcs:   runtime.GOMAXPROCS(0),
		Benchmarks: map[string]result{},
		Paths:      map[string]string{},
		Speedups:   map[string]float64{},
	}
	check(run(&rec, groups, speedups, *out))
	fmt.Println("wrote", *out)
}

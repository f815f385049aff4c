// Command benchtrain measures the training-step path and records the
// results as a machine-readable baseline: the legacy single-replica
// step and the data-parallel sharded step (see train.ShardedStep) at
// shard counts 1, 2, and 4, on a BatchNorm-free approximate model, and
// one solo vgg11 step at ReducedScale with the smoothdiff estimator
// (Train_SoloStep_VGG11: zero, forward, loss, backward on one replica —
// the step of the retrain_vgg11_smoothdiff benchmark workload, whose
// speed on two CPUs over one is the worker pool's scaling), and the
// optimizer step that follows it (Optim_AdamStep_VGG11: Adam over the
// same model's parameters, on the calling goroutine).
//
// Every model's first layer is approximate and, as the first layer,
// computes no input gradient, so the legacy and sharded rows exclude
// that work.
//
// The committed BENCH_train.json at the repository root is the current
// baseline; `make bench` re-measures, diffs against it with
// scripts/benchdiff (failing loudly on regressions), and promotes the
// new numbers. Sharded speedups scale with physical cores — on a
// single-core host the P>1 configurations measure the coordination
// overhead (expected ~1.0x), not a parallel win.
//
// Usage:
//
//	benchtrain [-out BENCH_train.json] [-quick]
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
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// Step shape: batch 32 of 3x16x16 images through an approximate
// conv/pool/linear stack — BN-free, so every shard count computes the
// bit-identical gradient (see train.ShardedStep).
const (
	batch   = 32
	inHW    = 16
	classes = 10
)

type result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

type record struct {
	Note       string             `json:"note"`
	Multiplier string             `json:"multiplier"`
	Shape      string             `json:"shape"`
	SoloStep   string             `json:"solo_step"`
	AdamStep   string             `json:"adam_step"`
	MaxProcs   int                `json:"maxprocs"`
	Benchmarks map[string]result  `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
}

func benchModel(op *nn.Op) *nn.Sequential {
	rng := rand.New(rand.NewSource(42))
	return nn.NewSequential("bench",
		nn.NewApproxConv2D("c1", 3, 8, 3, 1, 1, op, rng),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(),
		nn.NewApproxLinear("fc", 8*(inHW/2)*(inHW/2), classes, op, rng),
	)
}

func main() {
	out := flag.String("out", "BENCH_train.json", "output JSON path")
	quick := flag.Bool("quick", false, "short benchtime (noisier, for CI smoke reports)")
	testing.Init()
	flag.Parse()
	benchtime := "1s"
	if *quick {
		benchtime = "100ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrain:", err)
		os.Exit(1)
	}

	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		fmt.Fprintln(os.Stderr, "benchtrain: mul7u_rm6 missing from registry")
		os.Exit(1)
	}
	op := nn.DifferenceOp(e.Mult, 6)

	rng := rand.New(rand.NewSource(7))
	x := tensor.New(batch, 3, inHW, inHW)
	x.RandNormal(rng, 1)
	y := make([]int, batch)
	for i := range y {
		y[i] = i % classes
	}

	legacy := benchModel(op)
	benches := map[string]func(b *testing.B){
		"Train_ApproxStepLegacy": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nn.ZeroGrads(legacy)
				logits := legacy.Forward(x, true)
				_, grad := nn.SoftmaxCrossEntropy(logits, y)
				legacy.Backward(grad)
			}
		},
	}
	sdOp, err := train.OpForSpec(e, "smoothdiff")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrain:", err)
		os.Exit(1)
	}
	vgg := train.BuildModel("vgg11", classes, train.ReducedScale, models.ApproxConv(sdOp), 42)
	benches["Train_SoloStep_VGG11"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nn.ZeroGrads(vgg)
			logits := vgg.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			vgg.Backward(grad)
		}
	}
	vggParams := vgg.Params()
	numel := 0
	for _, p := range vggParams {
		numel += p.Value.Numel()
	}
	adam := optim.NewAdam()
	benches["Optim_AdamStep_VGG11"] = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adam.Step(vggParams, 1e-3)
		}
	}
	for _, p := range []int{1, 2, 4} {
		st := train.NewShardedStep(benchModel(op), train.ShardedConfig{Shards: p})
		benches[fmt.Sprintf("Train_ApproxStepSharded_P%d", p)] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Step(x, y)
				st.Broadcast()
			}
		}
	}

	rec := record{
		Note: "training-step baseline; regenerate with `make bench`. Sharded " +
			"speedups need physical cores: with maxprocs=1 the P>1 rows measure " +
			"pure coordination overhead, not parallelism.",
		Multiplier: op.Label,
		Shape:      fmt.Sprintf("batch=%d in=3x%dx%d classes=%d", batch, inHW, inHW, classes),
		SoloStep: fmt.Sprintf("Train_SoloStep_VGG11: vgg11 width %g, %s, same batch", train.ReducedScale.Width,
			sdOp.Label),
		AdamStep:   fmt.Sprintf("Optim_AdamStep_VGG11: Adam over that vgg11's %d parameters", numel),
		MaxProcs:   runtime.GOMAXPROCS(0),
		Benchmarks: map[string]result{},
		Speedups:   map[string]float64{},
	}
	for _, name := range []string{
		"Train_ApproxStepLegacy", "Train_ApproxStepSharded_P1",
		"Train_ApproxStepSharded_P2", "Train_ApproxStepSharded_P4", "Train_SoloStep_VGG11",
		"Optim_AdamStep_VGG11",
	} {
		r := testing.Benchmark(benches[name])
		rec.Benchmarks[name] = result{
			NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesOp:  r.AllocedBytesPerOp(),
			AllocsOp: r.AllocsPerOp(),
		}
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %6d allocs/op\n",
			name, rec.Benchmarks[name].NsOp, rec.Benchmarks[name].BytesOp, rec.Benchmarks[name].AllocsOp)
	}
	base := rec.Benchmarks["Train_ApproxStepSharded_P1"].NsOp
	rec.Speedups["sharded_p2_vs_p1"] = base / rec.Benchmarks["Train_ApproxStepSharded_P2"].NsOp
	rec.Speedups["sharded_p4_vs_p1"] = base / rec.Benchmarks["Train_ApproxStepSharded_P4"].NsOp
	rec.Speedups["sharded_p1_vs_legacy"] = rec.Benchmarks["Train_ApproxStepLegacy"].NsOp / base
	fmt.Printf("sharded P2 vs P1: %.2fx\n", rec.Speedups["sharded_p2_vs_p1"])
	fmt.Printf("sharded P4 vs P1: %.2fx\n", rec.Speedups["sharded_p4_vs_p1"])
	fmt.Printf("sharded P1 vs legacy: %.2fx\n", rec.Speedups["sharded_p1_vs_legacy"])

	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrain:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrain:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

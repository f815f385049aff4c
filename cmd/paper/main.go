// Command paper regenerates the paper artifacts under experiments/.
// Each entry of the manifest below is one artifact: a name and a
// function that calls the library with the configuration the recorded
// file was made with and writes experiments/<name>.txt.
//
//	go run ./cmd/paper -run table1,fig3
//	go run ./cmd/paper -run all -resume
//
// -run takes entry names or "all"; an unknown name fails and lists the
// manifest. With -resume every training leg checkpoints under
// experiments/ckpt/<name>/ and a rerun continues an interrupted entry
// from whatever is there; once the artifact is written its checkpoints
// are deleted, so a finished entry always retrains from scratch.
// Without -resume nothing is written but the artifacts. Run it from the
// repository root. One training run with its own knobs (checkpoint
// cadence, spike rollback, a live /metrics endpoint) is cmd/traind
// -role solo.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/errmetrics"
	"github.com/appmult/retrain/internal/faults"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/report"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/train"
)

// entry is one artifact of the manifest. run writes the artifact to w;
// ckpt is the directory its training legs checkpoint and resume under,
// "" for none.
type entry struct {
	name string
	run  func(w io.Writer, ckpt string) error
}

// tableIIMults lists the approximate multipliers of Table II in paper
// order (7- and 8-bit registry entries, accurate rows excluded). Fig. 5's
// panels are its 7-bit and 8-bit halves.
var tableIIMults = []string{
	"mul8u_syn1", "mul8u_syn2", "mul8u_2NDH", "mul8u_17C8",
	"mul8u_1DMU", "mul8u_17R6", "mul8u_rm8",
	"mul7u_06Q", "mul7u_073", "mul7u_rm6", "mul7u_syn1",
	"mul7u_syn2", "mul7u_081", "mul7u_08E",
}

var manifest = []entry{
	// Table I: characteristics of every registry multiplier beside the
	// paper's published values.
	{"table1", func(w io.Writer, _ string) error {
		lib, popt := tech.ASAP7(), circuit.PowerOptions{Vectors: 4096, Seed: 1}
		t := report.NewTable("Table I reproduction: multiplier characteristics",
			"multiplier", "area/um2", "delay/ps", "power/uW", "ER/%", "NMED/%", "MaxED", "HWS", "src",
			"paper(area,delay,power,ER,NMED,MaxED)")
		for _, e := range appmult.Registry() {
			hw := e.Hardware(lib, popt)
			m := errmetrics.Exhaustive(e.Mult.Bits(), e.Mult.Mul)
			hws := "N/A"
			if e.HWS > 0 {
				hws = fmt.Sprint(e.HWS)
			}
			p := e.Paper
			t.AddRow(e.Mult.Name(),
				fmt.Sprintf("%.1f", hw.AreaUM2), fmt.Sprintf("%.1f", hw.DelayPS), fmt.Sprintf("%.2f", hw.PowerUW),
				fmt.Sprintf("%.1f", m.ERPercent), fmt.Sprintf("%.2f", m.NMEDPercent), fmt.Sprint(m.MaxED),
				hws, hw.Source,
				fmt.Sprintf("%.1f, %.1f, %.2f, %.1f, %.2f, %d",
					p.AreaUM2, p.DelayPS, p.PowerUW, p.ERPercent, p.NMEDPercent, p.MaxED))
		}
		t.WriteText(w)
		return nil
	}},

	// Fig. 3: for mul7u_rm6 at Wf = 10, (a) the AppMult row, its Eq. (4)
	// smoothing at HWS = 4 and the accurate product; (b) dAM/dX(Wf, ·)
	// under the difference-based gradient and STE, read from the tables
	// the backward kernels consume.
	{"fig3", func(w io.Writer, _ string) error {
		const mult, wf, hws = "mul7u_rm6", 10, 4
		e, _ := appmult.Lookup(mult)
		bits := e.Mult.Bits()
		n := bitutil.NumInputs(bits)
		row := make([]uint32, n)
		for x := range row {
			row[x] = e.Mult.Mul(wf, uint32(x))
		}
		smoothed, lo, hi := gradient.SmoothRow(row, hws)
		fa := report.NewSeries(
			fmt.Sprintf("Fig. 3(a): %s, Wf=%d, HWS=%d — AppMult vs smoothed vs accurate", mult, wf, hws),
			"X", "AM(Wf,X)", "S(Wf,X)", "AccMult")
		for x := 0; x < n; x++ {
			s := smoothed[x]
			if x < lo || x > hi {
				s = -1 // outside the smoothing-valid range
			}
			fa.Add(float64(x), float64(row[x]), s, float64(wf*x))
		}
		fa.WriteText(w)
		fmt.Fprintln(w)

		specs := []string{gradient.EstSmoothDiff, gradient.EstSTE}
		info := gradient.MulInfo{Name: mult, Bits: bits, HWS: hws, Mul: e.Mult.Mul}
		grads := make([]*gradient.Tables, len(specs))
		for i, spec := range specs {
			est, err := gradient.ParseEstimator(spec)
			if err != nil {
				return err
			}
			grads[i] = est.Tables(info)
		}
		fb := report.NewSeries(
			fmt.Sprintf("Fig. 3(b): dAM/dX(Wf,·) per gradient estimator (%s)", strings.Join(specs, " vs ")),
			append([]string{"X"}, specs...)...)
		for x := 0; x < n; x++ {
			cells := []float64{float64(x)}
			for _, g := range grads {
				_, dx := g.At(wf, uint32(x))
				cells = append(cells, float64(dx))
			}
			fb.Add(cells...)
		}
		fb.WriteText(w)
		return nil
	}},

	// Section III-A's motivation for the moving average: STE, the raw
	// central difference and the smoothed difference on one LeNet.
	{"ablation_smoothing", func(w io.Writer, ckpt string) error {
		e, _ := appmult.Lookup("mul7u_rm6")
		var legs []ablationLeg
		for _, l := range []struct{ label, spec string }{
			{"STE", gradient.EstSTE}, {"RawDiff", gradient.EstRawDiff}, {"Ours", gradient.EstSmoothDiff},
		} {
			op, err := train.OpForSpec(e, l.spec)
			if err != nil {
				return err
			}
			legs = append(legs, ablationLeg{l.label, op})
		}
		ablation(w, ckpt, "smoothing", "estimator", e, legs)
		return nil
	}},

	// Eq. (6)'s boundary rule against clamping the interior central
	// difference at the edges.
	{"ablation_boundary", func(w io.Writer, ckpt string) error {
		e, _ := appmult.Lookup("mul7u_rm6")
		clamped := gradient.FromFunc(e.Mult.Name()+"/clamped", e.Mult.Bits(), clampedGrad(e.Mult, e.HWS))
		ablation(w, ckpt, "Eq. (6) boundary rule", "boundary", e, []ablationLeg{
			{"eq6", nn.DifferenceOp(e.Mult, e.HWS)},
			{"clamp", nn.NewOp(e.Mult, clamped)},
		})
		return nil
	}},

	// Table I's HWS column: the Section V-A selection protocol (minimum
	// final training loss of a short LeNet run per candidate).
	{"hws_mul6u_rm4", func(w io.Writer, _ string) error {
		e, _ := appmult.Lookup("mul6u_rm4")
		sc := train.TinyScale
		cells := train.SweepEstimators(e.Mult, []string{gradient.EstSmoothDiff}, nil, 10, sc, 1, log.Printf)
		best := train.BestCell(cells)
		t := report.NewTable(
			fmt.Sprintf("Estimator×HWS sweep for %s (LeNet, %d epochs per cell)", e.Mult.Name(), sc.Epochs),
			"estimator", "HWS", "final train loss", "selected")
		for _, c := range cells {
			sel := ""
			if c == best {
				sel = "<=="
			}
			t.AddRow(c.Spec, fmt.Sprint(c.HWS), fmt.Sprintf("%.4f", c.Loss), sel)
		}
		t.WriteText(w)
		fmt.Fprintf(w, "\nselected: %s at HWS %d (paper selected HWS %d)\n", best.Spec, best.HWS, e.HWS)
		return nil
	}},

	// One retraining leg per gradient estimator across Table II's
	// multipliers, on LeNet at tiny scale with the sharded step.
	{"estimator_matrix", func(w io.Writer, ckpt string) error {
		return tableII(w, ckpt, "tiny", 1, []string{"lenet"}, tableIIMults, train.CompareOptions{
			Shards: 2, Estimators: []string{gradient.EstSmoothDiff, gradient.EstCVSTE, gradient.EstStochastic},
		})
	}},

	// Table II: STE against the difference-based gradient. The VGG19
	// half runs every multiplier; the ResNet18 half the recorded subset;
	// the seeds file replicates the large-error VGG19 rows on seeds 1–3.
	// The committed table2_* files are pre-fix and predate these
	// entries: table2_vgg19_seeds.txt holds the old untitled rows, not
	// the one titled table per seed this entry prints.
	{"table2_vgg19_small", func(w io.Writer, ckpt string) error {
		return tableII(w, ckpt, "small", 1, []string{"vgg19"}, tableIIMults, train.CompareOptions{})
	}},
	{"table2_resnet18_small", func(w io.Writer, ckpt string) error {
		mults := []string{"mul8u_1DMU", "mul8u_rm8", "mul7u_06Q", "mul7u_syn2"}
		return tableII(w, ckpt, "small", 1, []string{"resnet18"}, mults, train.CompareOptions{})
	}},
	{"table2_vgg19_seeds", func(w io.Writer, ckpt string) error {
		for seed := int64(1); seed <= 3; seed++ {
			// Checkpoint names do not carry the seed: one directory per seed.
			dir := ""
			if ckpt != "" {
				dir = filepath.Join(ckpt, fmt.Sprintf("seed%d", seed))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return err
				}
			}
			mults := []string{"mul8u_rm8", "mul7u_rm6", "mul7u_syn2"}
			if err := tableII(w, dir, "small", seed, []string{"vgg19"}, mults, train.CompareOptions{}); err != nil {
				return err
			}
		}
		return nil
	}},

	// Fig. 5(a): ResNet18 accuracy after retraining against power
	// normalized to the 8-bit accurate multiplier, 7-bit panel.
	{"fig5_7bit", func(w io.Writer, ckpt string) error {
		var mults []string
		for _, name := range tableIIMults {
			if e, _ := appmult.Lookup(name); e.Mult.Bits() == 7 {
				mults = append(mults, name)
			}
		}
		t := report.NewTable("Fig. 5 reproduction: ResNet18 accuracy vs normalized power (scale=reduced)",
			"multiplier", "norm.power", "STE acc/%", "ours acc/%", "ref acc/%")
		opt := train.CompareOptions{CkptDir: ckpt}
		for _, r := range train.TableII(mults, []string{"resnet18"}, 10, train.ReducedScale, 1, log.Printf, opt) {
			t.AddRow(r.Multiplier, normPower(r.Multiplier),
				fmt.Sprintf("%.2f", r.STE.FinalTop1()), fmt.Sprintf("%.2f", r.Ours.FinalTop1()),
				fmt.Sprintf("%.2f", r.RefTop1))
		}
		t.WriteText(w)
		fmt.Fprintln(w, "\nreference lines: accurate-multiplier QAT accuracy per bit width (the paper's red lines).")
		return nil
	}},

	// Fig. 6: ResNet34 top-5 accuracy per epoch on the 100-class
	// stand-in, retrained with mul6u_rm4 under STE and ours. The
	// committed fig6_small.txt predates this entry (scale=tiny, 8x8
	// inputs, 5 epochs).
	{"fig6_small", func(w io.Writer, ckpt string) error {
		const mult, classes = "mul6u_rm4", 100
		sc := train.SmallScale
		sc.HW, sc.Width, sc.Train, sc.Test, sc.Epochs = 10, 0.12, 800, 300, 6
		opt := train.CompareOptions{CkptDir: ckpt}
		for _, r := range train.TableII([]string{mult}, []string{"resnet34"}, classes, sc, 1, log.Printf, opt) {
			s := report.NewSeries(
				fmt.Sprintf("Fig. 6 reproduction: %s top-5 accuracy vs epoch (%s, %d classes, scale=small)",
					r.Model, mult, classes),
				"epoch", "STE top5/%", "ours top5/%")
			for i := range r.STE.TestTop5 {
				s.Add(float64(i+1), r.STE.TestTop5[i], r.Ours.TestTop5[i])
			}
			s.WriteText(w)
			fmt.Fprintf(w, "final: STE %.2f%%  ours %.2f%%\n\n", r.STE.FinalTop5(), r.Ours.FinalTop5())
		}
		return nil
	}},

	// Accuracy of a retrained LeNet as bit flips corrupt mul8u_rm8's
	// product LUT, and how much guarded retraining under each faulty LUT
	// (with faulty gradient tables too) recovers.
	{"faultsweep_mul8u_rm8_small", faultSweep},
}

// ablationLeg is one row of an ablation table: a LeNet retrained with op.
type ablationLeg struct {
	label string
	op    *nn.Op
}

// ablation trains one tiny-scale LeNet per leg and writes the final
// loss and accuracy of each.
func ablation(w io.Writer, ckpt, what, column string, e appmult.Entry, legs []ablationLeg) {
	const seed = 1
	sc := train.TinyScale
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: 10, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: seed,
	})
	t := report.NewTable(fmt.Sprintf("Ablation: %s (LeNet, %s, scale=tiny)", what, e.Mult.Name()),
		column, "final loss", "top1/%")
	for _, l := range legs {
		cfg := train.Config{Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: seed}
		model := train.BuildModel("lenet", 10, sc, models.ApproxConv(l.op), seed)
		r := train.Run(model, trainSet, testSet, checkpointed(cfg, ckpt, l.label))
		t.AddRow(l.label, fmt.Sprintf("%.4f", r.FinalLoss()), fmt.Sprintf("%.2f", r.FinalTop1()))
	}
	t.WriteText(w)
}

// checkpointed points cfg at <ckpt>/<name>.ckpt and resumes from it,
// the layout train.CompareOptions uses for Table II's phases; ckpt ""
// leaves cfg as it is.
func checkpointed(cfg train.Config, ckpt, name string) train.Config {
	if ckpt != "" {
		cfg.CkptPath, cfg.Resume = filepath.Join(ckpt, name+".ckpt"), true
	}
	return cfg
}

// clampedGrad builds a gradient that uses the interior difference
// formula everywhere, clamping boundary positions to the nearest
// interior value instead of applying Eq. (6).
func clampedGrad(m appmult.Multiplier, hws int) gradient.GradFunc {
	base := gradient.Difference(m.Name(), m.Bits(), hws, m.Mul)
	n := uint32(1)<<uint(m.Bits()) - 1
	lo := uint32(hws + 1)
	hi := n - 1 - uint32(hws)
	clamp := func(v uint32) uint32 { return min(max(v, lo), hi) }
	return func(w, x uint32) (float64, float64) {
		dw, _ := base.At(clamp(w), x)
		_, dx := base.At(w, clamp(x))
		return float64(dw), float64(dx)
	}
}

// normPower is a multiplier's power normalized to the 8-bit accurate
// multiplier's, as Table II and Fig. 5 print it.
func normPower(mult string) string {
	lib, popt := tech.ASAP7(), circuit.PowerOptions{Vectors: 2048, Seed: 1}
	e, _ := appmult.Lookup(mult)
	acc8, _ := appmult.Lookup("mul8u_acc")
	return fmt.Sprintf("%.2f", e.Hardware(lib, popt).PowerUW/acc8.Hardware(lib, popt).PowerUW)
}

// tableII runs train.TableII with 10 classes and writes one row per
// (model, multiplier) and a mean row. The paper's two legs (the default
// estimators) print as Table II with its runtime(ours/STE) column; any
// other estimator list prints as an estimator matrix with one accuracy
// column per leg.
func tableII(w io.Writer, ckpt, scale string, seed int64, modelKinds, mults []string, opt train.CompareOptions) error {
	sc, err := train.ScaleByName(scale)
	if err != nil {
		return err
	}
	opt.CkptDir = ckpt
	opt.Estimators = train.NormalizeEstimators(opt.Estimators)
	rows := train.TableII(mults, modelKinds, 10, sc, seed, log.Printf, opt)

	paper := len(opt.Estimators) == 2 && opt.Estimators[1] == gradient.EstSmoothDiff
	title, cols := "Estimator matrix", []string{"model", "multiplier", "initial%"}
	if paper {
		title, cols = "Table II reproduction", append(cols, "STE%", "ours%")
	} else {
		for _, spec := range opt.Estimators {
			cols = append(cols, spec+"%")
		}
	}
	cols = append(cols, "improve", "ref%", "norm.power")
	if paper {
		cols = append(cols, "runtime(ours/STE)")
	}
	t := report.NewTable(fmt.Sprintf("%s (scale=%s, classes=10, seed=%d)", title, scale, seed), cols...)
	sums := make([]float64, len(opt.Estimators))
	var mi, mr float64
	for _, r := range rows {
		cells := []any{r.Model, r.Multiplier, r.InitialTop1}
		for i, leg := range r.Legs {
			cells = append(cells, leg.Result.FinalTop1())
			sums[i] += leg.Result.FinalTop1()
		}
		cells = append(cells, r.Improve, r.RefTop1, normPower(r.Multiplier))
		if paper {
			ratio := 0.0
			if r.STE.Seconds > 0 {
				ratio = r.Ours.Seconds / r.STE.Seconds
			}
			cells = append(cells, fmt.Sprintf("%.2f", ratio))
		}
		t.AddRowf(cells...)
		mi += r.InitialTop1
		mr += r.Improve
	}
	if len(rows) > 1 {
		n := float64(len(rows))
		cells := []any{"mean", "----", mi / n}
		for _, s := range sums {
			cells = append(cells, s/n)
		}
		t.AddRowf(append(cells, mr/n, "", "")...)
	}
	t.WriteText(w)
	// Robustness events are rare; a silent table implies clean runs.
	for _, r := range rows {
		for _, leg := range r.Legs {
			if res := leg.Result; !res.Healthy() {
				fmt.Fprintf(w, "robustness[%s/%s %s]: %d steps skipped, %d rollbacks, %d data retries\n",
					r.Model, r.Multiplier, leg.Label, res.SkippedSteps, res.Rollbacks, res.Retries)
			}
		}
	}
	return nil
}

// faultSweep trains a LeNet with the healthy mul8u_rm8 at small scale,
// then evaluates it under bit flips in the product LUT at five rates,
// three seeded draws each, and retrains it under each faulty LUT with
// faulty gradient tables (rate 0.001) and spike rollback.
func faultSweep(w io.Writer, ckpt string) error {
	const (
		mult, modelKind, classes, trials, seed = "mul8u_rm8", "lenet", 10, 3, 1
		gradRate                               = 0.001
	)
	rates := []float64{0, 0.0001, 0.001, 0.01, 0.1}
	sc := train.SmallScale
	entry, _ := appmult.Lookup(mult)
	bits := entry.Mult.Bits()
	baseLUT := appmult.BuildLUT(entry.Mult)
	grads := gradient.Difference(mult, bits, max(entry.HWS, 1), entry.Mult.Mul)
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: classes, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: seed,
	})
	cfg := train.Config{Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: seed}

	healthyOp := &nn.Op{Label: mult, Bits: bits, LUT: baseLUT, Grads: grads}
	model := train.BuildModel(modelKind, classes, sc, models.ApproxConv(healthyOp), seed)
	baseTop1 := train.Run(model, trainSet, testSet, checkpointed(cfg, ckpt, "healthy")).FinalTop1()

	// twin rebuilds the trained model around an op: weights and layer
	// state (observers, running stats) transfer, so it differs only by
	// the LUT and gradient tables under test.
	twin := func(lut []uint32, g *gradient.Tables) *nn.Sequential {
		return models.Approximate(model, &nn.Op{Label: mult + "+faults", Bits: bits, LUT: lut, Grads: g})
	}
	fm := faults.Model{Kind: faults.BitFlip, Dist: faults.BitsUniform, Seed: seed}
	points := faults.Sweep(baseLUT, bits, fm, rates, trials, func(lut []uint32, _ []faults.Fault) float64 {
		top1, _ := train.Evaluate(twin(lut, grads), testSet, sc.BatchSize)
		return top1
	})
	// The retrain sweep re-derives the identical fault sets (same
	// seeds), so its rows align with the evaluation sweep's.
	var skipped, leg int
	recovered := faults.Sweep(baseLUT, bits, fm, rates, trials, func(lut []uint32, _ []faults.Fault) float64 {
		leg++
		g, _ := faults.FaultyTables(grads, faults.Model{
			Kind: fm.Kind, Dist: fm.Dist, Rate: gradRate, Seed: seed + int64(leg)*31,
		})
		rcfg := checkpointed(cfg, ckpt, fmt.Sprintf("retrain_%02d", leg))
		rcfg.SpikeFactor = 10
		res := train.Run(twin(lut, g), trainSet, testSet, rcfg)
		skipped += res.SkippedSteps
		return res.FinalTop1()
	})

	t := report.NewTable(
		fmt.Sprintf("Fault sweep: %s on %s (kind=%s dist=%s trials=%d transient=false seed=%d, healthy %.2f%%)",
			mult, modelKind, fm.Kind, fm.Dist, trials, seed, baseTop1),
		"rate", "faults", "top1%", "min%", "max%", "drop", "retrained%", "recovered")
	for i, p := range points {
		t.AddRowf(fmt.Sprintf("%g", p.Rate), fmt.Sprintf("%.0f", p.MeanFaults),
			p.MeanTop1, p.MinTop1, p.MaxTop1, baseTop1-p.MeanTop1,
			recovered[i].MeanTop1, recovered[i].MeanTop1-p.MeanTop1)
	}
	t.WriteText(w)
	if skipped > 0 {
		fmt.Fprintf(w, "(%d training steps skipped by gradient guards across all retrains)\n", skipped)
	}
	return nil
}

// selectEntries resolves -run's comma list ("all" for the manifest).
func selectEntries(run string) ([]entry, error) {
	if run == "all" {
		return manifest, nil
	}
	var out []entry
	for _, name := range strings.Split(run, ",") {
		i := slices.IndexFunc(manifest, func(e entry) bool { return e.name == name })
		if i < 0 {
			names := make([]string, len(manifest))
			for j, e := range manifest {
				names[j] = e.name
			}
			return nil, fmt.Errorf("unknown artifact %q (have: %s, all)", name, strings.Join(names, ", "))
		}
		out = append(out, manifest[i])
	}
	return out, nil
}

// produce runs e and writes <root>/experiments/<name>.txt. With resume
// its legs checkpoint under <root>/experiments/ckpt/<name>/, which is
// deleted once the artifact is written: only an interrupted run leaves
// checkpoints for the next -resume to continue from.
func produce(e entry, root string, resume bool) (string, error) {
	ckpt := ""
	if resume {
		ckpt = filepath.Join(root, "experiments", "ckpt", e.name)
		if err := os.MkdirAll(ckpt, 0o755); err != nil {
			return "", err
		}
	}
	var buf bytes.Buffer
	if err := e.run(&buf, ckpt); err != nil {
		return "", fmt.Errorf("%s: %w", e.name, err)
	}
	path := filepath.Join(root, "experiments", e.name+".txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	if ckpt != "" {
		return path, os.RemoveAll(ckpt)
	}
	return path, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	run := flag.String("run", "", "comma-separated artifact names, or all")
	resume := flag.Bool("resume", false, "checkpoint every training leg under experiments/ckpt/<name>/ and continue an interrupted run from there")
	flag.Parse()
	entries, err := selectEntries(*run)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range entries {
		start := time.Now()
		path, err := produce(e, ".", *resume)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%.1fs)", path, time.Since(start).Seconds())
	}
}

// Command retrain reproduces the paper's Table II: AppMult-aware
// retraining accuracy with the STE baseline versus the proposed
// difference-based gradient, for VGG and ResNet models.
//
// One row:
//
//	retrain -mult mul7u_rm6 -model vgg19
//
// The full table (all 7- and 8-bit approximate multipliers, both
// models — several CPU-hours at the default reduced scale):
//
//	retrain -all
//
// -estimator selects the gradient estimators to retrain with (comma
// list of gradient.ParseEstimator specs; the STE baseline always runs
// so the improvement column is defined). The default "smoothdiff"
// reproduces the paper's two-leg comparison; more specs switch the
// output to an estimator matrix with one accuracy column per leg:
//
//	retrain -all -estimator smoothdiff,cvste,stochastic
//
// Scale flags trade fidelity for time; -scale paper selects the
// published configuration (see DESIGN.md for what "reduced" changes).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/report"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/train"
)

// tableIIMults lists the approximate multipliers of Table II in paper
// order (7- and 8-bit registry entries, accurate rows excluded).
var tableIIMults = []string{
	"mul8u_syn1", "mul8u_syn2", "mul8u_2NDH", "mul8u_17C8",
	"mul8u_1DMU", "mul8u_17R6", "mul8u_rm8",
	"mul7u_06Q", "mul7u_073", "mul7u_rm6", "mul7u_syn1",
	"mul7u_syn2", "mul7u_081", "mul7u_08E",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("retrain: ")
	var (
		mult       = flag.String("mult", "mul7u_rm6", "approximate multiplier name (see amchar for the list)")
		model      = flag.String("model", "vgg19", "model kind: lenet|vgg11|vgg16|vgg19|resnet18|resnet34|resnet50")
		classes    = flag.Int("classes", 10, "number of classes (10 = CIFAR-10 stand-in)")
		scale      = flag.String("scale", "reduced", "experiment scale: paper|reduced|small|tiny")
		all        = flag.Bool("all", false, "run the Table II sweep (see -mults/-models for subsets)")
		mults      = flag.String("mults", "", "comma-separated multiplier subset for -all (default: all 7/8-bit AppMults)")
		modelsF    = flag.String("models", "vgg19,resnet18", "comma-separated model kinds for -all")
		seed       = flag.Int64("seed", 1, "experiment seed")
		verbose    = flag.Bool("v", false, "log per-epoch progress")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		ckpt       = flag.String("ckpt", "", "directory for per-phase training checkpoints (enables checkpointing)")
		resume     = flag.Bool("resume", false, "resume killed phases from their checkpoints under -ckpt")
		every      = flag.Int("ckpt-every", 1, "epochs between checkpoints")
		spike      = flag.Float64("spike", 0, "loss-spike rollback factor (>1 enables; e.g. 10)")
		shards     = flag.Int("shards", 0, "data-parallel shard count (>=1 enables the sharded step; 0 = legacy single replica)")
		metricsA   = flag.String("metrics-addr", "", "optional debug listener for /metrics and /debug/pprof (e.g. :8091) exposing live training telemetry")
		estimatorF = flag.String("estimator", "smoothdiff", "comma-separated gradient-estimator specs (ste|smoothdiff|cvste|stochastic|rawdiff, with optional parameters like smoothdiff(hws=8)); ste always runs as the baseline")
		metricsOut = flag.String("metrics-out", "", "write a final Prometheus-text snapshot of the process metrics to this file on exit")
	)
	flag.Parse()

	if *metricsA != "" {
		go func() { log.Fatal(obs.ListenAndServe(*metricsA, obs.Default())) }()
		log.Printf("observability endpoint on %s (/metrics, /debug/pprof)", *metricsA)
	}

	sc, err := train.ScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}
	var logf func(string, ...any)
	if *verbose {
		logf = log.Printf
	}
	if *resume && *ckpt == "" {
		log.Fatal("-resume requires -ckpt")
	}
	if *ckpt != "" {
		if err := os.MkdirAll(*ckpt, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	// Validate every estimator spec up front — a typo should fail here,
	// not hours into a sweep.
	estimators := train.NormalizeEstimators(strings.Split(*estimatorF, ","))
	for _, spec := range estimators {
		if _, err := gradient.ParseEstimator(spec); err != nil {
			log.Fatal(err)
		}
	}
	opt := train.CompareOptions{CkptDir: *ckpt, Resume: *resume, CkptEvery: *every, SpikeFactor: *spike, Shards: *shards, Estimators: estimators}

	multList, modelList := []string{*mult}, []string{*model}
	if *all {
		multList, modelList, logf = tableIIMults, strings.Split(*modelsF, ","), log.Printf
		if *mults != "" {
			multList = strings.Split(*mults, ",")
		}
	}
	rows := train.TableII(multList, modelList, *classes, sc, *seed, logf, opt)

	lib := tech.ASAP7()
	popt := circuit.PowerOptions{Vectors: 2048, Seed: 1}
	accPower := map[int]float64{}
	for _, bits := range []int{6, 7, 8} {
		e, _ := appmult.Lookup(fmt.Sprintf("mul%du_acc", bits))
		accPower[bits] = e.Hardware(lib, popt).PowerUW
	}
	acc8, _ := appmult.Lookup("mul8u_acc")
	norm := acc8.Hardware(lib, popt).PowerUW

	// The paper's original two legs keep the historical Table II layout;
	// anything else renders as an estimator matrix with one accuracy
	// column per leg.
	legacy := len(estimators) == 2 && estimators[0] == gradient.EstSTE && estimators[1] == gradient.EstSmoothDiff

	var t *report.Table
	if legacy {
		t = report.NewTable(
			fmt.Sprintf("Table II reproduction (scale=%s, classes=%d, seed=%d)", *scale, *classes, *seed),
			"model", "multiplier", "initial%", "STE%", "ours%", "improve", "ref%", "norm.power", "runtime(ours/STE)",
		)
		for _, r := range rows {
			e, _ := appmult.Lookup(r.Multiplier)
			hw := e.Hardware(lib, popt)
			ratio := 0.0
			if r.STE.Seconds > 0 {
				ratio = r.Ours.Seconds / r.STE.Seconds
			}
			t.AddRowf(r.Model, r.Multiplier, r.InitialTop1, r.STE.FinalTop1(), r.Ours.FinalTop1(),
				r.Improve, r.RefTop1, fmt.Sprintf("%.2f", hw.PowerUW/norm), fmt.Sprintf("%.2f", ratio))
		}
		if len(rows) > 1 {
			var mi, ms, mo, mr float64
			for _, r := range rows {
				mi += r.InitialTop1
				ms += r.STE.FinalTop1()
				mo += r.Ours.FinalTop1()
				mr += r.Improve
			}
			n := float64(len(rows))
			t.AddRowf("mean", strings.Repeat("-", 4), mi/n, ms/n, mo/n, mr/n, "", "")
		}
	} else {
		cols := []string{"model", "multiplier", "initial%"}
		for _, spec := range estimators {
			cols = append(cols, spec+"%")
		}
		cols = append(cols, "improve", "ref%", "norm.power")
		t = report.NewTable(
			fmt.Sprintf("Estimator matrix (scale=%s, classes=%d, seed=%d)", *scale, *classes, *seed),
			cols...,
		)
		sums := make([]float64, len(estimators))
		var mi, mr float64
		for _, r := range rows {
			e, _ := appmult.Lookup(r.Multiplier)
			hw := e.Hardware(lib, popt)
			cells := []any{r.Model, r.Multiplier, r.InitialTop1}
			for i, leg := range r.Legs {
				top1 := leg.Result.FinalTop1()
				cells = append(cells, top1)
				sums[i] += top1
			}
			cells = append(cells, r.Improve, r.RefTop1, fmt.Sprintf("%.2f", hw.PowerUW/norm))
			t.AddRowf(cells...)
			mi += r.InitialTop1
			mr += r.Improve
		}
		if len(rows) > 1 {
			n := float64(len(rows))
			cells := []any{"mean", strings.Repeat("-", 4), mi / n}
			for _, s := range sums {
				cells = append(cells, s/n)
			}
			cells = append(cells, mr/n, "", "")
			t.AddRowf(cells...)
		}
	}
	if *csv {
		t.WriteCSV(os.Stdout)
	} else {
		t.WriteText(os.Stdout)
	}
	// Robustness events are rare; a silent table implies clean runs.
	for _, r := range rows {
		for _, leg := range r.Legs {
			if !leg.Result.Healthy() {
				fmt.Printf("robustness[%s/%s %s]: %d steps skipped, %d rollbacks, %d data retries\n",
					r.Model, r.Multiplier, leg.Label, leg.Result.SkippedSteps, leg.Result.Rollbacks, leg.Result.Retries)
			}
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteTo(f, obs.Default().Snapshot()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics snapshot written to %s", *metricsOut)
	}
}

// Command traind runs elastic multi-process retraining: a coordinator
// that owns the training loop plus any number of workers that compute
// gradient slices over TCP (see internal/dist and
// docs/dist-protocol.md).
//
// The three roles share one job spec (-model/-mult/-estimator/-scale/
// -seed/...), and for BatchNorm-free models the distributed result is
// bit-identical to the single-process run — which is what makes the
// solo role useful as a verification reference:
//
//	traind -role solo -model lenet -out solo.params
//
//	traind -role coordinator -listen :9200 -min-workers 2 -model lenet -out dist.params
//	traind -role worker -connect host:9200   # on each worker machine
//
//	cmp solo.params dist.params   # byte-identical
//
// Workers are elastic: they may crash (a dead worker's run of slices
// is reassigned to survivors mid-step), rejoin (full state re-sync on admission), or
// join late. The coordinator checkpoints like any train.Run caller, so
// a killed coordinator resumes bit-identically with -ckpt/-resume.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/appmult/retrain/internal/dist"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traind: ")
	var (
		role = flag.String("role", "solo", "process role: solo|coordinator|worker")

		// Job spec (coordinator and solo; workers receive it on the wire).
		model     = flag.String("model", "lenet", "model kind: lenet|vgg11|vgg16|vgg19|resnet18|resnet34|resnet50")
		mult      = flag.String("mult", "mul8u_acc", "approximate multiplier name (experiments/table1.txt lists them)")
		estimator = flag.String("estimator", "ste", "gradient-estimator spec: ste|smoothdiff|cvste|stochastic|rawdiff, with optional parameters like stochastic(seed=7) ('ours' = smoothdiff)")
		scale     = flag.String("scale", "tiny", "experiment scale: paper|reduced|small|tiny")
		classes   = flag.Int("classes", 10, "number of classes")
		seed      = flag.Int64("seed", 1, "experiment seed")
		epochs    = flag.Int("epochs", 0, "override the scale's epoch count (0 = scale default)")
		batch     = flag.Int("batch", 0, "override the scale's batch size (0 = scale default)")

		// Coordinator.
		listen     = flag.String("listen", ":9200", "coordinator listen address")
		minWorkers = flag.Int("min-workers", 1, "workers to wait for before training starts")
		heartbeat  = flag.Duration("heartbeat", 500*time.Millisecond, "worker ping cadence")
		hbTimeout  = flag.Duration("heartbeat-timeout", 5*time.Second, "silence after which a worker is declared dead")

		// Worker.
		connect = flag.String("connect", "", "coordinator address to join (worker role)")

		// Training robustness (coordinator and solo).
		shards = flag.Int("shards", 1, "in-process shard count for -role solo")
		ckpt   = flag.String("ckpt", "", "checkpoint path (enables checkpointing after every epoch)")
		resume = flag.Bool("resume", false, "resume from -ckpt when it exists")
		spike  = flag.Float64("spike", 0, "loss-spike rollback factor (>1 enables)")

		out      = flag.String("out", "", "write final model parameters (NNCKPv1) here; byte-identical across equivalent runs")
		metricsA = flag.String("metrics-addr", "", "optional debug listener for /metrics and /debug/pprof (e.g. :8091)")
		verbose  = flag.Bool("v", false, "log per-epoch progress")
	)
	flag.Parse()

	if *metricsA != "" {
		go func() { log.Fatal(obs.ListenAndServe(*metricsA, obs.Default())) }()
		log.Printf("observability endpoint on %s (/metrics, /debug/pprof)", *metricsA)
	}
	var logf func(string, ...any)
	if *verbose {
		logf = log.Printf
	}
	if *resume && *ckpt == "" {
		log.Fatal("-resume requires -ckpt")
	}

	spec := dist.Spec{
		Model: *model, Mult: *mult, Estimator: *estimator, Scale: *scale,
		Classes: *classes, Seed: *seed, Epochs: *epochs, BatchSize: *batch,
	}

	switch *role {
	case "worker":
		if *connect == "" {
			log.Fatal("-role worker requires -connect")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := dist.RunWorker(ctx, dist.WorkerConfig{
			Coordinator: *connect,
			Logf:        log.Printf,
			Seed:        *seed,
		})
		if err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		return

	case "coordinator":
		m, sc, err := spec.Build()
		if err != nil {
			log.Fatal(err)
		}
		co, err := dist.NewCoordinator(m, spec, dist.CoordinatorConfig{
			Addr:             *listen,
			HeartbeatEvery:   *heartbeat,
			HeartbeatTimeout: *hbTimeout,
			Logf:             log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer co.Close()
		log.Printf("listening on %s; waiting for %d worker(s)", co.Addr(), *minWorkers)
		if err := co.AwaitWorkers(*minWorkers, dist.WorkerTimeout); err != nil {
			log.Fatal(err)
		}
		runJob(m, spec, sc, train.Config{Stepper: co}, logf, *ckpt, *resume, *spike, *out)
		return

	case "solo":
		m, sc, err := spec.Build()
		if err != nil {
			log.Fatal(err)
		}
		runJob(m, spec, sc, train.Config{Shards: *shards}, logf, *ckpt, *resume, *spike, *out)
		return

	default:
		log.Fatalf("unknown -role %q (solo|coordinator|worker)", *role)
	}
}

// runJob drives the shared training path for the solo and coordinator
// roles and writes the final parameters.
func runJob(m *nn.Sequential, spec dist.Spec, sc train.Scale, base train.Config,
	logf func(string, ...any), ckpt string, resume bool, spike float64, out string) {
	trainSet, testSet := spec.Datasets(sc)
	cfg := base
	cfg.Epochs = sc.Epochs
	cfg.BatchSize = sc.BatchSize
	cfg.Schedule = sc.Schedule()
	cfg.Seed = spec.Seed
	cfg.Logf = logf
	cfg.CkptPath = ckpt
	cfg.Resume = resume
	cfg.SpikeFactor = spike
	res := train.Run(m, trainSet, testSet, cfg)
	log.Printf("done: final loss %.6f, top-1 %.2f%%, %d skipped steps, %d rollbacks",
		res.FinalLoss(), res.FinalTop1(), res.SkippedSteps, res.Rollbacks)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		if err := nn.SaveParams(f, m); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("final parameters written to %s", out)
	}
}

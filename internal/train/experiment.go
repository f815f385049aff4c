package train

import (
	"fmt"
	"path/filepath"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

// Scale bundles the experiment size knobs. PaperScale reproduces the
// published setup; ReducedScale is the CPU-tractable default used by
// the benchmark harness (see DESIGN.md's substitution table — relative
// comparisons are preserved, wall-clock is not).
type Scale struct {
	// HW is the input resolution; Width the channel multiplier.
	HW    int
	Width float64
	// Train/Test are split sizes; Epochs and BatchSize the training
	// budget.
	Train, Test int
	Epochs      int
	BatchSize   int
	// LR0 is the base learning rate for the first schedule stage; the
	// paper's 1e-3 when zero. Reduced-scale runs train far fewer steps
	// per epoch, so they use a proportionally larger base rate; the
	// 1e-3 : 5e-4 : 2.5e-4 stage structure is kept either way.
	LR0 float64
}

// Schedule returns the paper's three-stage step schedule scaled to the
// scale's epoch budget and base rate.
func (s Scale) Schedule() optim.Schedule {
	lr0 := s.LR0
	if lr0 == 0 {
		lr0 = 1e-3
	}
	sched := optim.PaperSchedule(s.Epochs)
	for i := range sched {
		sched[i].LR *= lr0 / 1e-3
	}
	return sched
}

// PaperScale is the published configuration (CIFAR-size data, width 1,
// 30 epochs, batch 64, base LR 1e-3).
var PaperScale = Scale{HW: 32, Width: 1.0, Train: 50000, Test: 10000, Epochs: 30, BatchSize: 64}

// ReducedScale keeps every code path of the paper's flow while fitting
// CPU budgets: 16x16 inputs, eighth-width models, 960/240 splits.
var ReducedScale = Scale{HW: 16, Width: 0.125, Train: 960, Test: 240, Epochs: 9, BatchSize: 32, LR0: 3e-3}

// TinyScale is for tests: minutes of CPU, still end-to-end.
var TinyScale = Scale{HW: 8, Width: 0.08, Train: 120, Test: 60, Epochs: 6, BatchSize: 20, LR0: 8e-3}

// BuildModel constructs one of the evaluation architectures by name
// (see models.Kinds for the accepted set).
func BuildModel(kind string, classes int, sc Scale, conv models.ConvFactory, seed int64) *nn.Sequential {
	cfg := models.Config{Classes: classes, InputHW: sc.HW, Width: sc.Width, Conv: conv, Seed: seed}
	m, err := models.ByKind(kind, cfg)
	if err != nil {
		panic(fmt.Sprintf("train: %v", err))
	}
	return m
}

// CompareResult is one Table II row: the reference QAT accuracy with
// the accurate multiplier, the AppMult model's accuracy before
// retraining, and the retrained accuracies under each estimator.
type CompareResult struct {
	Multiplier string
	Model      string
	// RefTop1 is the QAT reference accuracy using the same-width
	// accurate multiplier.
	RefTop1 float64
	// InitialTop1 is the AppMult model's accuracy with QAT weights,
	// before AppMult-aware retraining.
	InitialTop1 float64
	// Legs holds every retrained estimator leg, in the normalized
	// CompareOptions.Estimators order (the "ste" baseline first).
	Legs []EstimatorLeg
	// STE and Ours are the paper's original two trajectories, kept as
	// convenient aliases into Legs: STE is the baseline leg, Ours the
	// first non-baseline leg (whatever estimator it trained under).
	STE, Ours Result
	// Improve is Ours.FinalTop1() - STE.FinalTop1().
	Improve float64
}

// CompareOptions carries checkpointing, sharding and the estimator
// legs of a Table II sweep through to the per-phase training runs.
type CompareOptions struct {
	// CkptDir, when non-empty, checkpoints every phase (QAT reference,
	// each estimator leg) as <CkptDir>/<name>.ckpt under deterministic
	// names and resumes each phase from its file when it exists:
	// killed phases continue, completed phases replay from their
	// checkpoint without retraining.
	CkptDir string
	// Shards forwards to Config.Shards: every phase trains on that many
	// data-parallel replicas (values below 1 mean 1).
	Shards int
	// Estimators lists the gradient-estimator specs to retrain with,
	// normalized by NormalizeEstimators: empty selects the repository
	// default {ste, smoothdiff} — exactly the paper's two legs — and
	// the "ste" baseline always runs (first) so Improve is defined.
	Estimators []string
}

// config derives the phase Config for a checkpoint file name.
func (o CompareOptions) config(base Config, name string) Config {
	base.Shards = o.Shards
	if o.CkptDir != "" {
		base.CkptPath, base.Resume = filepath.Join(o.CkptDir, name+".ckpt"), true
	}
	return base
}

// SmallScale sits between TinyScale and ReducedScale: the scale the
// repository's recorded EXPERIMENTS.md sweeps use (~14–16 s per vgg19
// Table II row on a 2-core host, ROADMAP finding 1).
var SmallScale = Scale{HW: 12, Width: 0.15, Train: 480, Test: 160, Epochs: 8, BatchSize: 24, LR0: 5e-3}

// ScaleByName maps the cmd-line scale names to configurations.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale, nil
	case "reduced":
		return ReducedScale, nil
	case "small":
		return SmallScale, nil
	case "tiny":
		return TinyScale, nil
	default:
		return Scale{}, fmt.Errorf("train: unknown scale %q (paper|reduced|small|tiny)", name)
	}
}

// TableII reproduces Table II rows at the given scale: for every model
// kind and multiplier, QAT-train a reference model with the accurate
// multiplier of the same width, seed an AppMult twin from its weights,
// measure its initial accuracy, then retrain it once per estimator leg
// (STE and the difference-based gradient by default) and report
// everything. One reference is shared per (model, bit width) pair: it
// does not depend on the approximate multiplier, only on its width.
// With opt.CkptDir set every phase checkpoints under a deterministic
// file name, so a killed sweep resumes row by row (finished rows
// replay from their checkpoints).
func TableII(multNames, modelKinds []string, classes int, sc Scale, seed int64, logf func(string, ...any), opt CompareOptions) []CompareResult {
	legs := mustPlanLegs(opt.Estimators)
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: classes, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: seed,
	})
	cfg := Config{Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: seed, Logf: logf}

	type refKey struct {
		model string
		bits  int
	}
	refs := make(map[refKey]*refEntry)
	getRef := func(model string, bits int) *refEntry {
		k := refKey{model, bits}
		if r, ok := refs[k]; ok {
			return r
		}
		if logf != nil {
			logf("[ref] QAT training %s with %d-bit accurate multiplier", model, bits)
		}
		accOp := nn.STEOp(appmult.NewAccurate(bits))
		m := BuildModel(model, classes, sc, models.ApproxConv(accOp), seed)
		refCfg := opt.config(cfg, fmt.Sprintf("ref_%s_%dbit", model, bits))
		refCfg.Estimator = gradient.EstSTE
		res := Run(m, trainSet, testSet, refCfg)
		r := &refEntry{model: m, top1: res.FinalTop1()}
		refs[k] = r
		return r
	}

	var out []CompareResult
	for _, mk := range modelKinds {
		for _, mn := range multNames {
			entry, ok := appmult.Lookup(mn)
			if !ok {
				panic(fmt.Sprintf("train: unknown multiplier %q", mn))
			}
			ref := getRef(mk, entry.Mult.Bits())
			row := make([]EstimatorLeg, 0, len(legs))
			for _, lp := range legs {
				row = append(row, runLeg(lp, entry, mk, sc, ref.model, trainSet, testSet, cfg, opt, logf))
			}
			out = append(out, assembleCompare(mn, mk, ref.top1, row))
			if logf != nil {
				last := out[len(out)-1]
				logf("[%s/%s] done: init %.2f ste %.2f ours %.2f improve %.2f",
					mn, mk, last.InitialTop1, last.STE.FinalTop1(), last.Ours.FinalTop1(), last.Improve)
			}
		}
	}
	return out
}

// refEntry caches one QAT reference model and its accuracy.
type refEntry struct {
	model *nn.Sequential
	top1  float64
}

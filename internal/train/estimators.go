package train

import (
	"fmt"
	"strings"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
)

// This file is the training side of the GradEstimator seam: estimator
// specs (gradient.ParseEstimator strings) become retraining legs of a
// CompareResult, and estimator×HWS grids replace the HWS-only sweep.

// NormalizeEstimators canonicalizes the estimator-spec list of a
// comparison run: an empty list becomes the repository default
// {smoothdiff}, the "ste" baseline is moved (or added) to the front —
// every comparison measures improvement against it — and duplicates
// are dropped while preserving order. The default therefore normalizes
// to {ste, smoothdiff}: exactly the two legs the pre-seam code ran.
func NormalizeEstimators(specs []string) []string {
	if len(specs) == 0 {
		specs = []string{gradient.EstSmoothDiff}
	}
	out := []string{gradient.EstSTE}
	seen := map[string]bool{gradient.EstSTE: true}
	for _, s := range specs {
		s = strings.TrimSpace(s)
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// OpForSpec builds the nn.Op realizing an estimator spec for a
// registry entry, resolving the entry's selected HWS for estimators
// that consume it (see gradient.ParseEstimator for the spec syntax).
func OpForSpec(entry appmult.Entry, spec string) (*nn.Op, error) {
	est, err := gradient.ParseEstimator(spec)
	if err != nil {
		return nil, err
	}
	return nn.EstimatorOp(entry.Mult, est, entry.HWS), nil
}

// EstimatorLeg is one retraining leg of a CompareResult: one estimator
// retrained from the shared QAT reference.
type EstimatorLeg struct {
	// Spec is the estimator spec the leg trained under, as given to
	// CompareOptions.Estimators (e.g. "smoothdiff(hws=8)").
	Spec string
	// Estimator is the estimator family's registry key (e.g.
	// "smoothdiff"), the label recorded in metrics and run metadata.
	Estimator string
	// Label is the report/checkpoint label ("STE", "Ours", or a
	// filesystem-safe rendering of Spec for the added estimators).
	Label string
	// InitialTop1 is the AppMult model's accuracy with the QAT weights
	// before this leg retrains (identical across legs of one row).
	InitialTop1 float64
	// Result is the leg's full retraining trajectory.
	Result Result
}

// legPlan is a parsed, labeled estimator spec ready to retrain.
type legPlan struct {
	spec  string
	est   gradient.GradEstimator
	label string
}

// planLegs parses and labels a normalized spec list.
func planLegs(specs []string) ([]legPlan, error) {
	plans := make([]legPlan, 0, len(specs))
	for _, s := range specs {
		est, err := gradient.ParseEstimator(s)
		if err != nil {
			return nil, err
		}
		plans = append(plans, legPlan{spec: s, est: est, label: legLabel(s)})
	}
	return plans, nil
}

// legLabel maps an estimator spec to its checkpoint/report label. The
// two pre-seam legs keep their historical labels — "STE" and "Ours" —
// so checkpoints written before the refactor still resume; every other
// spec is rendered filesystem-safe ("stochastic(seed=7)" becomes
// "stochastic_seed7").
func legLabel(spec string) string {
	switch spec {
	case gradient.EstSTE:
		return "STE"
	case gradient.EstSmoothDiff:
		return "Ours"
	}
	var b strings.Builder
	for _, r := range spec {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == '(' || r == ',':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// mustPlanLegs panics on an invalid spec; the compare entry points
// follow the package's panic-on-bad-input convention (cmds validate
// specs up front via ParseEstimator or OpForSpec).
func mustPlanLegs(specs []string) []legPlan {
	plans, err := planLegs(NormalizeEstimators(specs))
	if err != nil {
		panic(fmt.Sprintf("train: %v", err))
	}
	return plans
}

// runLeg retrains one estimator leg from the QAT reference model: a
// copy of its whole state — parameters, BatchNorm running statistics and
// activation observers — on the leg's multiplier, so the leg's initial
// accuracy is the reference's own model under that multiplier.
func runLeg(lp legPlan, entry appmult.Entry, modelKind string, sc Scale,
	ref *nn.Sequential, trainSet, testSet *data.Dataset, cfg Config, opt CompareOptions,
	logf func(string, ...any)) EstimatorLeg {
	op := nn.EstimatorOp(entry.Mult, lp.est, entry.HWS)
	m := models.Approximate(ref, op)
	initial, _ := Evaluate(m, testSet, sc.BatchSize)
	if logf != nil {
		logf("[%s/%s] retraining with %s (initial %.2f%%)", entry.Mult.Name(), modelKind, lp.label, initial)
	}
	c := opt.config(cfg, fmt.Sprintf("%s_%s_%s", modelKind, entry.Mult.Name(), lp.label))
	c.Estimator = lp.est.Name()
	res := Run(m, trainSet, testSet, c)
	return EstimatorLeg{
		Spec:        lp.spec,
		Estimator:   lp.est.Name(),
		Label:       lp.label,
		InitialTop1: initial,
		Result:      res,
	}
}

// assembleCompare folds retrained legs into a CompareResult, keeping
// the legacy STE/Ours/Improve fields coherent: STE is the baseline
// leg, Ours the first non-baseline leg (the baseline itself if nothing
// else ran), and Improve their final-accuracy gap.
func assembleCompare(multName, modelKind string, refTop1 float64, legs []EstimatorLeg) CompareResult {
	r := CompareResult{
		Multiplier: multName,
		Model:      modelKind,
		RefTop1:    refTop1,
		Legs:       legs,
	}
	if len(legs) > 0 {
		r.InitialTop1 = legs[0].InitialTop1
	}
	ours := -1
	for i, leg := range legs {
		if leg.Estimator == gradient.EstSTE {
			r.STE = leg.Result
		} else if ours < 0 {
			ours = i
		}
	}
	if ours < 0 && len(legs) > 0 {
		ours = 0
	}
	if ours >= 0 {
		r.Ours = legs[ours].Result
		r.Improve = r.Ours.FinalTop1() - r.STE.FinalTop1()
	}
	return r
}

// SweepCell is one cell of an estimator×HWS sweep grid.
type SweepCell struct {
	// Spec is the estimator spec of the cell's column family.
	Spec string
	// HWS is the swept half window size; 0 for estimators that have no
	// HWS axis (their family contributes a single cell).
	HWS int
	// Loss is the final training loss of the cell's short run (the
	// Section V-A selection criterion).
	Loss float64
}

// SweepEstimators generalizes the Section V-A HWS-selection protocol
// to an estimator×HWS grid: for each estimator spec, train a LeNet for
// the scale's epoch budget and record the final training loss. A bare
// "smoothdiff" spec sweeps the HWS candidates (DefaultHWSCandidates
// when nil), producing one cell per admissible candidate; every other
// spec — including an explicitly parameterized "smoothdiff(hws=N)" —
// contributes exactly one cell. The cell with the smallest loss wins.
func SweepEstimators(m appmult.Multiplier, specs []string, candidates []int, classes int, sc Scale, seed int64, logf func(string, ...any)) []SweepCell {
	if len(specs) == 0 {
		specs = []string{gradient.EstSmoothDiff}
	}
	if len(candidates) == 0 {
		candidates = gradient.DefaultHWSCandidates
	}
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: classes, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: seed,
	})
	maxHWS := gradient.MaxHWS(m.Bits())
	runCell := func(est gradient.GradEstimator, hws int) float64 {
		op := nn.EstimatorOp(m, est, hws)
		model := BuildModel("lenet", classes, sc, models.ApproxConv(op), seed)
		res := Run(model, trainSet, testSet, Config{
			Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: seed,
			Estimator: est.Name(),
		})
		return res.FinalLoss()
	}
	var cells []SweepCell
	for _, spec := range specs {
		est, err := gradient.ParseEstimator(spec)
		if err != nil {
			panic(fmt.Sprintf("train: %v", err))
		}
		if sd, ok := est.(gradient.SmoothDiff); ok && sd.HWS <= 0 {
			for _, hws := range candidates {
				if hws < 1 || hws > maxHWS {
					continue
				}
				loss := runCell(gradient.SmoothDiff{HWS: hws}, hws)
				cells = append(cells, SweepCell{Spec: spec, HWS: hws, Loss: loss})
				if logf != nil {
					logf("%-12s HWS %2d: final train loss %.4f", spec, hws, loss)
				}
			}
			continue
		}
		loss := runCell(est, 0)
		cells = append(cells, SweepCell{Spec: spec, Loss: loss})
		if logf != nil {
			logf("%-12s        final train loss %.4f", spec, loss)
		}
	}
	return cells
}

// BestCell returns the sweep cell with the smallest final loss (zero
// value for an empty grid).
func BestCell(cells []SweepCell) SweepCell {
	var best SweepCell
	for i, c := range cells {
		if i == 0 || c.Loss < best.Loss {
			best = c
		}
	}
	return best
}

package dist

import (
	"fmt"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/train"
	"github.com/appmult/retrain/internal/wire"
)

// Spec is the job description a coordinator hands every worker in its
// Welcome frame. It contains everything needed to rebuild the training
// replica from scratch — model kind, multiplier, estimator, scale,
// seed — so workers need no local configuration beyond the
// coordinator's address, and a rejoining worker always reconstructs
// exactly the architecture the coordinator is training.
type Spec struct {
	// Model is the architecture kind (see models.Kinds).
	Model string
	// Mult names the approximate multiplier (an appmult registry name).
	Mult string
	// Estimator is the gradient-estimator spec (see
	// gradient.ParseEstimator): "ste", "smoothdiff", "cvste",
	// "stochastic(seed=7)", "rawdiff", ... The historical aliases
	// "ours" and "difference" still mean "smoothdiff".
	Estimator string
	// Scale names the experiment scale: paper|reduced|small|tiny.
	Scale string
	// Classes is the classifier width.
	Classes int
	// Seed drives weight init, data synthesis, and batch shuffling.
	Seed int64
	// Epochs overrides the scale's epoch budget when > 0.
	Epochs int
	// BatchSize overrides the scale's batch size when > 0.
	BatchSize int
}

// canonicalEstimator resolves a Spec.Estimator value to the estimator
// spec the GradEstimator seam understands, translating the historical
// wire aliases ("ours"/"difference" mean "smoothdiff") and validating
// the result. Coordinator and workers both canonicalize, so mixed-age
// nodes agree on the estimator a job trains under.
func canonicalEstimator(name string) (string, error) {
	switch name {
	case "":
		return gradient.EstSTE, nil
	case "ours", "difference":
		return gradient.EstSmoothDiff, nil
	}
	if _, err := gradient.ParseEstimator(name); err != nil {
		return "", fmt.Errorf("dist: %w", err)
	}
	return name, nil
}

// Build constructs the model and resolves the effective scale for the
// spec. Coordinator, workers, and the solo reference path in
// cmd/traind all build through here, so a spec describes exactly one
// model on every node.
func (s Spec) Build() (*nn.Sequential, train.Scale, error) {
	sc, err := train.ScaleByName(s.Scale)
	if err != nil {
		return nil, train.Scale{}, err
	}
	if s.Epochs > 0 {
		sc.Epochs = s.Epochs
	}
	if s.BatchSize > 0 {
		sc.BatchSize = s.BatchSize
	}
	entry, ok := appmult.Lookup(s.Mult)
	if !ok {
		return nil, train.Scale{}, fmt.Errorf("dist: unknown multiplier %q", s.Mult)
	}
	spec, err := canonicalEstimator(s.Estimator)
	if err != nil {
		return nil, train.Scale{}, err
	}
	op, err := train.OpForSpec(entry, spec)
	if err != nil {
		return nil, train.Scale{}, err
	}
	classes := s.Classes
	if classes < 1 {
		classes = 10
	}
	m, err := models.ByKind(s.Model, models.Config{
		Classes: classes, InputHW: sc.HW, Width: sc.Width,
		Conv: models.ApproxConv(op), Seed: s.Seed,
	})
	if err != nil {
		return nil, train.Scale{}, err
	}
	return m, sc, nil
}

// Datasets synthesizes the spec's train/test sets for the resolved
// scale — only the coordinator (and the solo reference path) needs
// them; workers receive batch rows inside Slice frames.
func (s Spec) Datasets(sc train.Scale) (trainSet, testSet *data.Dataset) {
	classes := s.Classes
	if classes < 1 {
		classes = 10
	}
	return data.Synthetic(data.SynthConfig{
		Classes: classes, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: s.Seed,
	})
}

// encode appends the spec's wire form.
func (s Spec) encode(e *wire.Enc) {
	e.Str(s.Model)
	e.Str(s.Mult)
	e.Str(s.Estimator)
	e.Str(s.Scale)
	e.U32(uint32(s.Classes))
	e.U64(uint64(s.Seed))
	e.U32(uint32(s.Epochs))
	e.U32(uint32(s.BatchSize))
}

// decodeSpec reads a spec's wire form.
func decodeSpec(d *wire.Dec) Spec {
	return Spec{
		Model:     d.Str(),
		Mult:      d.Str(),
		Estimator: d.Str(),
		Scale:     d.Str(),
		Classes:   int(d.U32()),
		Seed:      int64(d.U64()),
		Epochs:    int(d.U32()),
		BatchSize: int(d.U32()),
	}
}

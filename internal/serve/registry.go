// Package serve is the batched inference serving subsystem: it loads
// trained approximate models (TRCKPv1 checkpoints plus an AppMult
// product LUT and quantization calibration) into read-only inference
// replicas, coalesces concurrent single-image requests into
// GEMM-friendly micro-batches, and fronts everything with an HTTP JSON
// API with admission control, per-request deadlines, graceful drain,
// and latency/throughput/batch-size metrics. It is the first layer
// that turns the retraining reproduction into a servable system.
package serve

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// Spec describes one model to serve. Kind/Classes/InputHW/Width/Mult
// must match the configuration the checkpoint was trained with — the
// checkpoint loader verifies parameter layout and refuses mismatches.
type Spec struct {
	// Name is the identifier clients use in /v1/predict.
	Name string `json:"name"`
	// Kind is the architecture: lenet|vgg11|vgg16|vgg19|resnet18|resnet34|resnet50.
	Kind string `json:"kind"`
	// Classes is the classifier width.
	Classes int `json:"classes"`
	// InputHW is the (square) input resolution; channels are fixed at 3.
	InputHW int `json:"input_hw"`
	// Width is the channel-width multiplier (1.0 = paper scale).
	Width float64 `json:"width"`
	// Mult is the approximate multiplier's registry name (see
	// experiments/table1.txt); empty selects the accurate 8-bit multiplier.
	Mult string `json:"multiplier"`
	// Ckpt is an optional TRCKPv1 training checkpoint to restore
	// parameters, batch-norm statistics, and quantization calibration
	// from. Empty serves a freshly initialized model (useful for load
	// testing).
	Ckpt string `json:"-"`
	// Replicas is the number of independent model copies serving
	// batches concurrently (default 1).
	Replicas int `json:"replicas"`
	// MaxBatch caps the coalesced batch size (default 8).
	MaxBatch int `json:"max_batch"`
	// QueueDepth bounds the admission queue (default 4*MaxBatch).
	QueueDepth int `json:"queue_depth"`
	// Seed drives initialization when no checkpoint is given.
	Seed int64 `json:"-"`
}

var servableKinds = map[string]bool{
	"lenet": true, "vgg11": true, "vgg16": true, "vgg19": true,
	"resnet18": true, "resnet34": true, "resnet50": true,
}

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "default"
	}
	if s.Classes == 0 {
		s.Classes = 10
	}
	if s.InputHW == 0 {
		s.InputHW = 16
	}
	if s.Width == 0 {
		s.Width = 0.125
	}
	if s.Replicas < 1 {
		s.Replicas = 1
	}
	b := BatcherConfig{MaxBatch: s.MaxBatch, QueueDepth: s.QueueDepth}.withDefaults()
	s.MaxBatch, s.QueueDepth = b.MaxBatch, b.QueueDepth
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Model is one servable model: a batcher over inference replicas plus
// its metrics. The base model and op are retained so AddReplica can
// mint further warm replicas after load — the fleet autoscaler's
// scale-up path.
type Model struct {
	spec    Spec
	batcher *Batcher
	metrics *Metrics
	base    *nn.Sequential
	op      *nn.Op
}

// Spec returns the (defaulted) spec the model was loaded from.
func (m *Model) Spec() Spec { return m.spec }

// Batcher returns the model's request queue.
func (m *Model) Batcher() *Batcher { return m.batcher }

// Metrics returns the model's serving metrics.
func (m *Model) Metrics() *Metrics { return m.metrics }

// ImageLen returns the flattened input size clients must send.
func (m *Model) ImageLen() int { return 3 * m.spec.InputHW * m.spec.InputHW }

// Load builds a servable model: construct the architecture with the
// multiplier's product LUT, restore the checkpoint if given, replicate
// into independent read-only inference copies, warm each replica (so
// scratch arenas are sized and, for un-checkpointed models, activation
// observers are calibrated once up front — after warm-up no request
// mutates replica state), and start the micro-batching queue.
func Load(spec Spec) (*Model, error) {
	spec = spec.withDefaults()
	if !servableKinds[spec.Kind] {
		return nil, fmt.Errorf("serve: unknown model kind %q", spec.Kind)
	}
	op, err := opFor(spec.Mult)
	if err != nil {
		return nil, err
	}

	sc := train.Scale{HW: spec.InputHW, Width: spec.Width}
	base := train.BuildModel(spec.Kind, spec.Classes, sc, models.ApproxConv(op), spec.Seed)
	if spec.Ckpt != "" {
		if _, err := train.LoadCheckpoint(spec.Ckpt, base); err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", spec.Ckpt, err)
		}
	}

	reps := models.Replicas(base, op, spec.Replicas)
	runners := make([]Runner, len(reps))
	for i, r := range reps {
		rep := &replica{model: r, hw: spec.InputHW, classes: spec.Classes}
		rep.warm(spec.MaxBatch, spec.Seed)
		runners[i] = rep
	}

	metrics := NewMetrics(spec.Name)
	b := NewBatcher(runners, BatcherConfig{MaxBatch: spec.MaxBatch, QueueDepth: spec.QueueDepth}, metrics)
	return &Model{spec: spec, batcher: b, metrics: metrics, base: base, op: op}, nil
}

// AddReplica builds, warms, and registers one more inference replica —
// the scale-up primitive the fleet autoscaler drives. It fails once
// the pool is at the batcher's runner cap or the batcher is draining.
func (m *Model) AddReplica() error {
	rep := &replica{model: models.Replicas(m.base, m.op, 1)[0],
		hw: m.spec.InputHW, classes: m.spec.Classes}
	rep.warm(m.spec.MaxBatch, m.spec.Seed)
	return m.batcher.AddRunner(rep)
}

// RemoveReplica retires one idle replica, reporting whether one was
// removed (false when only one remains or all are mid-batch).
func (m *Model) RemoveReplica() bool { return m.batcher.RemoveRunner() }

// Replicas returns the number of replicas currently registered.
func (m *Model) Replicas() int { return m.batcher.Runners() }

// opFor resolves a multiplier registry name (empty selects the accurate
// 8-bit multiplier) into an approximate-product Op. Inference only runs
// the forward LUT; STE gradient tables are the cheapest valid backward
// bundle and are never gathered by Predict.
func opFor(multName string) (*nn.Op, error) {
	if multName == "" {
		multName = "mul8u_acc"
	}
	entry, ok := appmult.Lookup(multName)
	if !ok {
		return nil, fmt.Errorf("serve: unknown multiplier %q", multName)
	}
	return nn.STEOp(entry.Mult), nil
}

// replica wraps one independent model copy with its reusable input
// batch buffer. The batcher guarantees a replica runs one batch at a
// time, which is exactly the single-stream discipline nn layers
// require.
type replica struct {
	model   *nn.Sequential
	in      *tensor.Tensor
	hw      int
	classes int
}

// warm runs one full-size batch through the replica: it sizes every
// scratch arena at the serving batch size and calibrates the
// activation observers of un-checkpointed models, so no later request
// allocates large buffers or mutates observer state.
func (r *replica) warm(maxBatch int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r.in = tensor.Ensure(r.in, maxBatch, 3, r.hw, r.hw)
	r.in.RandNormal(rng, 1)
	r.model.Predict(r.in)
}

// Run implements Runner.
func (r *replica) Run(images [][]float32) ([][]float32, error) {
	n := len(images)
	chw := 3 * r.hw * r.hw
	r.in = tensor.Ensure(r.in, n, 3, r.hw, r.hw)
	for i, img := range images {
		if len(img) != chw {
			return nil, fmt.Errorf("serve: image %d has %d values, want %d", i, len(img), chw)
		}
		copy(r.in.Data[i*chw:(i+1)*chw], img)
	}
	out := r.model.Predict(r.in)
	if len(out.Shape) != 2 || out.Shape[0] != n || out.Shape[1] != r.classes {
		return nil, fmt.Errorf("serve: model produced %v, want (%d,%d)", out.Shape, n, r.classes)
	}
	// The output tensor is owned by the model's final layer; copy the
	// rows out before the next batch overwrites them.
	scores := make([][]float32, n)
	for i := range scores {
		scores[i] = append([]float32(nil), out.Data[i*r.classes:(i+1)*r.classes]...)
	}
	return scores, nil
}

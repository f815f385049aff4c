// Package train orchestrates the paper's experiments: quantization-
// aware training of reference models, AppMult-aware retraining with a
// selectable gradient estimator (STE baseline vs. the proposed
// difference-based tables), epoch-wise accuracy tracking, and the HWS
// selection protocol of Section V-A.
package train

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"time"

	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/tensor"
)

// Stepper executes one training step on behalf of Run: forward,
// backward, and gradient reduction into the primary model's Param.Grad
// accumulators. Run applies the optimizer to the primary's params and
// then calls Broadcast; after any out-of-band mutation of the primary
// (loss-spike rollback, checkpoint resume) it calls SyncReplicas
// instead. ShardedStep is the in-process implementation; the
// distributed coordinator (internal/dist) implements the same contract
// over TCP workers.
type Stepper interface {
	// Step runs one training step over minibatch (x, y) and returns the
	// full-batch mean loss, leaving the reduced gradients on the
	// primary model.
	Step(x *tensor.Tensor, y []int) float64
	// Broadcast pushes the primary's updated parameter values to every
	// replica after an optimizer step.
	Broadcast()
	// SyncReplicas restores full replica coherence (values plus
	// non-parameter layer state) after rollback or resume.
	SyncReplicas()
}

// Config controls one training run.
type Config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size (the paper uses 64).
	BatchSize int
	// Schedule is the learning-rate schedule; nil selects the paper's
	// step schedule scaled to Epochs.
	Schedule optim.Schedule
	// Seed drives batch shuffling.
	Seed int64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Estimator labels the run with the gradient-estimator registry key
	// it trains under (gradient.EstSmoothDiff, ...). It does not change
	// the training math — the estimator is baked into the model's Ops —
	// but it is recorded in the train_runs_total metric and in the
	// checkpoint's run-metadata sidecar for provenance. Empty runs are
	// labeled "unspecified".
	Estimator string

	// Shards selects data-parallel sharded training when >= 1: each
	// step splits the minibatch across Shards model replicas and
	// reduces the gradients deterministically (see ShardedStep). Zero
	// keeps the legacy single-replica step: one pass over the whole
	// batch on the model itself, observers folding each batch as it
	// passes. Sharded runs are bit-reproducible, and for BatchNorm-free
	// models any Shards value produces bit-identical trajectories
	// (Shards=4 == Shards=1).
	Shards int
	// Stepper, when non-nil, replaces the built-in step executor: Run
	// drives it instead of constructing a ShardedStep (Shards is then
	// ignored). The distributed coordinator
	// plugs in here. Run calls Stepper.SyncReplicas after a successful
	// checkpoint resume so external replicas pick up the restored
	// state; the caller owns the Stepper's lifecycle (Run does not
	// detach or close it).
	Stepper Stepper

	// Robustness knobs (see README "Robustness & fault model"). The
	// per-step NaN/Inf gradient guard and panic recovery are always on:
	// they never alter a healthy run, only turn poisoned steps into
	// counted skips.

	// SpikeFactor enables loss-spike rollback when > 1: a batch whose
	// loss is NaN/Inf or exceeds SpikeFactor times the trailing mean of
	// accepted batch losses rolls the parameters and optimizer back to
	// the epoch-start snapshot. Zero disables rollback (NaN/Inf losses
	// then skip the step instead).
	SpikeFactor float64
	// CkptPath, when non-empty, enables atomic checkpointing (see
	// SaveCheckpoint) after every CkptEvery-th epoch and after the
	// final one.
	CkptPath string
	// CkptEvery is the epoch interval between checkpoints; 0 means 1.
	CkptEvery int
	// Resume loads CkptPath (when it exists) and continues from the
	// epoch after the one it recorded. A checkpoint recording a
	// different seed is refused: its continuation could not match a
	// straight run.
	Resume bool
}

func (c Config) schedule() optim.Schedule {
	if c.Schedule != nil {
		return c.Schedule
	}
	return optim.PaperSchedule(c.Epochs)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Result records one run's trajectory.
type Result struct {
	// TrainLoss is the mean training loss per epoch.
	TrainLoss []float64
	// TestTop1 and TestTop5 are test accuracies (percent) per epoch.
	TestTop1 []float64
	TestTop5 []float64
	// Seconds is the wall-clock training time (evaluation excluded).
	// The paper reports the difference-based backward pass costing
	// 1.4-2.6x STE's runtime; this field reproduces that comparison.
	Seconds float64

	// Robustness counters. SkippedSteps counts batches dropped by the
	// NaN/Inf gradient guard or recovered from a panic; Rollbacks
	// counts loss-spike rollbacks to the epoch-start snapshot. Retries
	// (data-pipeline read retries; TRCKPv1 keeps its slot, though no
	// stage in the repository retries reads today) and InjectedFaults
	// (LUT faults, see internal/faults) are populated by the callers
	// that own those stages — Run has no visibility into them.
	SkippedSteps   int
	Rollbacks      int
	Retries        int
	InjectedFaults int
}

// Healthy reports whether the run finished without robustness events.
func (r Result) Healthy() bool {
	return r.SkippedSteps == 0 && r.Rollbacks == 0 && r.Retries == 0
}

// FinalTop1 returns the last epoch's top-1 accuracy.
func (r Result) FinalTop1() float64 {
	if len(r.TestTop1) == 0 {
		return 0
	}
	return r.TestTop1[len(r.TestTop1)-1]
}

// FinalTop5 returns the last epoch's top-5 accuracy.
func (r Result) FinalTop5() float64 {
	if len(r.TestTop5) == 0 {
		return 0
	}
	return r.TestTop5[len(r.TestTop5)-1]
}

// FinalLoss returns the last epoch's mean training loss.
func (r Result) FinalLoss() float64 {
	if len(r.TrainLoss) == 0 {
		return 0
	}
	return r.TrainLoss[len(r.TrainLoss)-1]
}

// Run trains model on the training split with Adam and the configured
// schedule, evaluating on the test split after every epoch.
//
// The loop is guarded: a batch whose forward/backward panics or whose
// gradients contain NaN/Inf is skipped and counted instead of poisoning
// the weights, and (when cfg.SpikeFactor > 1) a loss spike rolls the
// model and optimizer back to the epoch-start snapshot. With a CkptPath
// the run checkpoints atomically and, with Resume, continues a killed
// run bit-identically (see SaveCheckpoint).
func Run(model nn.Layer, trainSet, testSet *data.Dataset, cfg Config) Result {
	if cfg.Epochs < 1 || cfg.BatchSize < 1 {
		panic(fmt.Sprintf("train: invalid config %+v", cfg))
	}
	noteRun(cfg.Estimator)
	if cfg.CkptPath != "" {
		// TRCKPv1-adjacent run metadata: a JSON sidecar next to the
		// binary checkpoint records what this run trained, most notably
		// the estimator label, without touching the TRCKPv1 format.
		if err := writeRunMeta(cfg); err != nil {
			cfg.logf("run metadata: %v", err)
		}
	}
	opt := optim.NewAdam()
	sched := cfg.schedule()
	params := model.Params()
	var res Result
	startEpoch := 1
	resumed := false
	if cfg.Resume && cfg.CkptPath != "" {
		switch st, err := LoadCheckpoint(cfg.CkptPath, model); {
		case err == nil:
			if st.Seed != cfg.Seed {
				panic(fmt.Sprintf("train: checkpoint %s was written with seed %d, run uses seed %d",
					cfg.CkptPath, st.Seed, cfg.Seed))
			}
			opt.Restore(params, st.Adam)
			res = st.Result
			startEpoch = st.Epoch + 1
			resumed = true
			cfg.logf("resumed %s: %d/%d epochs done", cfg.CkptPath, st.Epoch, cfg.Epochs)
		case errors.Is(err, fs.ErrNotExist):
			cfg.logf("no checkpoint at %s; starting fresh", cfg.CkptPath)
		default:
			// A corrupt checkpoint is not a fresh start: fail loudly
			// rather than silently discarding hours of training.
			panic(fmt.Sprintf("train: cannot resume: %v", err))
		}
	}
	ckptEvery := cfg.CkptEvery
	if ckptEvery < 1 {
		ckptEvery = 1
	}
	stepper := cfg.Stepper
	switch {
	case stepper != nil:
		if resumed {
			// External replicas (e.g. remote workers) may already hold
			// pre-resume state; push the restored primary to them.
			stepper.SyncReplicas()
		}
	case cfg.Shards >= 1:
		seq, ok := model.(*nn.Sequential)
		if !ok {
			panic(fmt.Sprintf("train: sharded training needs *nn.Sequential, got %T", model))
		}
		// Built after resume so the clones copy the restored state.
		shard := NewShardedStep(seq, ShardedConfig{Shards: cfg.Shards})
		defer shard.Detach()
		stepper = shard
	default:
		stepper = soloStep{NewReplica(model, false)}
	}
	it := trainSet.Iter(cfg.BatchSize)
	for epoch := startEpoch; epoch <= cfg.Epochs; epoch++ {
		lr := sched.At(epoch)
		learningRate.Set(lr)
		var snap *epochSnapshot
		if cfg.SpikeFactor > 1 {
			snap = snapshot(model, params, opt)
		}
		var lossSum float64
		var accepted int
		it.Reset(cfg.Seed + int64(epoch))
		start := time.Now()
		for bi := 0; it.Next(); bi++ {
			b := it.Batch()
			var loss float64
			err := guarded(func() { loss = stepper.Step(b.X, b.Y) })
			if err != nil {
				res.SkippedSteps++
				stepsSkippedPanic.Inc()
				cfg.logf("epoch %d batch %d: %v (step skipped)", epoch, bi, err)
				continue
			}
			if bad, spiked := lossAnomaly(loss, lossSum, accepted, cfg.SpikeFactor); bad {
				if snap != nil {
					snap.restore(model, params, opt)
					stepper.SyncReplicas()
					res.Rollbacks++
					rollbacksTotal.Inc()
					cfg.logf("epoch %d batch %d: loss %.4g (spiked=%v); rolled back to epoch start",
						epoch, bi, loss, spiked)
				} else {
					res.SkippedSteps++
					stepsSkippedLoss.Inc()
					cfg.logf("epoch %d batch %d: loss %.4g not finite (step skipped)", epoch, bi, loss)
				}
				continue
			}
			if !gradsFinite(params) {
				res.SkippedSteps++
				stepsSkippedGrad.Inc()
				cfg.logf("epoch %d batch %d: NaN/Inf gradient (step skipped)", epoch, bi)
				continue
			}
			lossSum += loss
			accepted++
			stepLoss.Set(loss)
			stepsTotal.Inc()
			opt.Step(params, lr)
			stepper.Broadcast()
		}
		trainSeconds := time.Since(start).Seconds()
		res.Seconds += trainSeconds
		phaseTrainSeconds.Add(trainSeconds)
		meanLoss := math.NaN()
		if accepted > 0 {
			meanLoss = lossSum / float64(accepted)
		}
		evalStart := time.Now()
		top1, top5 := Evaluate(model, testSet, cfg.BatchSize)
		phaseEvalSeconds.Add(time.Since(evalStart).Seconds())
		res.TrainLoss = append(res.TrainLoss, meanLoss)
		res.TestTop1 = append(res.TestTop1, top1)
		res.TestTop5 = append(res.TestTop5, top5)
		epochsTotal.Inc()
		epochGauge.Set(float64(epoch))
		epochLoss.Set(meanLoss)
		testTop1.Set(top1)
		testTop5.Set(top5)
		cfg.logf("epoch %2d/%d lr %.2e loss %.4f top1 %.2f%% top5 %.2f%%",
			epoch, cfg.Epochs, lr, meanLoss, top1, top5)
		if cfg.CkptPath != "" && (epoch%ckptEvery == 0 || epoch == cfg.Epochs) {
			st := CheckpointState{Epoch: epoch, Seed: cfg.Seed, Adam: opt.Snapshot(params), Result: res}
			ckptStart := time.Now()
			err := SaveCheckpoint(cfg.CkptPath, model, st)
			elapsed := time.Since(ckptStart)
			phaseCkptSeconds.Add(elapsed.Seconds())
			ckptWriteMs.Observe(float64(elapsed) / float64(time.Millisecond))
			if err != nil {
				// Training can proceed without the checkpoint; surface
				// the failure and keep going.
				ckptErrors.Inc()
				cfg.logf("epoch %d: checkpoint failed: %v", epoch, err)
			}
		}
	}
	if res.SkippedSteps > 0 || res.Rollbacks > 0 {
		cfg.logf("robustness: %d steps skipped, %d rollbacks", res.SkippedSteps, res.Rollbacks)
	}
	return res
}

// soloStep is Run's built-in step (Shards 0): the slice body over the
// whole batch on the model itself, with nothing to broadcast to.
type soloStep struct{ rep *Replica }

// Step implements Stepper.
func (s soloStep) Step(x *tensor.Tensor, y []int) float64 {
	return s.rep.run(x, y, len(y)) / float64(len(y))
}

// Broadcast implements Stepper: there are no other replicas.
func (soloStep) Broadcast() {}

// SyncReplicas implements Stepper: there are no other replicas.
func (soloStep) SyncReplicas() {}

// guarded runs fn and converts a panic into an error, carrying the
// panic value and preserving error panics via %w. It is the training
// loop's last line of defense: a single poisoned batch (bad shape,
// corrupted record) becomes a skipped step instead of killing a
// multi-hour run. The stack is unwound normally, so deferred cleanup in
// fn still runs.
func guarded(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("train: recovered panic: %w", e)
			} else {
				err = fmt.Errorf("train: recovered panic: %v", r)
			}
		}
	}()
	fn()
	return nil
}

// lossAnomaly classifies a batch loss: bad when the step must not be
// applied, spiked when it tripped the spike threshold specifically
// (as opposed to being non-finite). The trailing mean is over accepted
// batches this epoch; the first few batches are exempt so a noisy
// epoch start cannot trip the detector.
func lossAnomaly(loss, lossSum float64, accepted int, factor float64) (bad, spiked bool) {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return true, false
	}
	const minWindow = 8
	if factor > 1 && accepted >= minWindow && loss > factor*(lossSum/float64(accepted)) {
		return true, true
	}
	return false, false
}

// gradsFinite scans every gradient for NaN/Inf.
func gradsFinite(params []*nn.Param) bool {
	for _, p := range params {
		if !tensor.AllFinite(p.Grad.Data) {
			return false
		}
	}
	return true
}

// epochSnapshot is the rollback target for loss-spike recovery:
// parameter values, optimizer state, and non-parameter layer state
// (running statistics, observers).
type epochSnapshot struct {
	values [][]float32
	adam   optim.AdamState
	state  [][]float32
}

func snapshot(model nn.Layer, params []*nn.Param, opt *optim.Adam) *epochSnapshot {
	s := &epochSnapshot{
		values: make([][]float32, len(params)),
		adam:   opt.Snapshot(params),
		state:  nn.CollectState(model),
	}
	for i, p := range params {
		s.values[i] = append([]float32(nil), p.Value.Data...)
	}
	return s
}

func (s *epochSnapshot) restore(model nn.Layer, params []*nn.Param, opt *optim.Adam) {
	for i, p := range params {
		copy(p.Value.Data, s.values[i])
		p.Touch()
	}
	opt.Restore(params, s.adam)
	if err := nn.RestoreState(model, s.state); err != nil {
		// The snapshot came from this very model; a mismatch means
		// memory corruption, not bad input.
		panic(fmt.Sprintf("train: rollback failed: %v", err))
	}
}

// Evaluate computes top-1 and top-5 test accuracy in percent.
// (Top-5 degenerates to 100% when the class count is 5 or less.)
func Evaluate(model nn.Layer, ds *data.Dataset, batchSize int) (top1, top5 float64) {
	var c1, c5, n int
	it := ds.Iter(batchSize)
	for it.Next() {
		b := it.Batch()
		out := model.Forward(b.X, false)
		c1 += nn.TopKCorrect(out, b.Y, 1)
		c5 += nn.TopKCorrect(out, b.Y, 5)
		n += len(b.Y)
	}
	return float64(c1) / float64(n) * 100, float64(c5) / float64(n) * 100
}

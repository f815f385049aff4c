package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/dist"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// Every workload uses one multiplier and train.ReducedScale shapes:
// 16x16 inputs, width 0.125, batch 32, 960/240 split.
const (
	multName = "mul7u_rm6"
	classes  = 10
)

// scale is train.ReducedScale, except that -quick shrinks the dataset
// (useQuickScale, once at child start-up) so that an epoch is three
// steps and a smoke run takes seconds.
var scale = train.ReducedScale

func useQuickScale() { scale.Train, scale.Test = 3*scale.BatchSize, scale.BatchSize }

func stepsPerEpoch() int { return scale.Train / scale.BatchSize }

type topology int

const (
	topoSolo    topology = iota // bench-owned single-replica Stepper
	topoShards2                 // train.NewShardedStep(Shards: 2)
	topoDist2                   // dist.Coordinator + two in-process workers
)

// trainSpec describes one retrain_* workload.
type trainSpec struct {
	name      string
	kind      string
	estimator string
	topo      topology
	// epochsPerSecond sizes the measured phase: epochs = seconds x this,
	// calibrated so the phase takes --seconds at the seed commit on the
	// reference host (2 cores). A fixed op count, not a fixed duration,
	// so parent and change do identical work and losses repeat exactly.
	epochsPerSecond float64
	setups          int
}

func (ts trainSpec) epochs(seconds float64) int {
	e := int(math.Round(seconds * ts.epochsPerSecond))
	if e < 2 {
		e = 2 // verification compares the first and the last epoch
	}
	return e
}

// stepLog holds four timestamps per op, preallocated for the phase.
type stepLog struct {
	t0                                 time.Time
	stepIn, stepOut, bcastIn, bcastOut []int64
	loss                               []float64
	// calibMs[i] is the host-speed sample taken before op i, outside
	// its clock (measured phases only; see calib.go).
	calibMs []float64
	n       int
}

func newStepLog(capacity int) *stepLog {
	return &stepLog{t0: time.Now(),
		stepIn: make([]int64, capacity), stepOut: make([]int64, capacity),
		bcastIn: make([]int64, capacity), bcastOut: make([]int64, capacity),
		loss: make([]float64, capacity), calibMs: make([]float64, capacity)}
}

func (l *stepLog) now() int64 { return int64(time.Since(l.t0)) }

// benchStepper is the train.Stepper every retrain workload hands to
// train.Run. It times one op as Step entry -> Broadcast exit (one
// optimizer iteration on 32 images) and delegates the work: to inner
// when set (ShardedStep, dist.Coordinator), else to the four calls of
// Run's built-in single-replica branch. With a tracer and layered set
// it drives the layers one by one instead, for per-layer spans.
type benchStepper struct {
	model   *nn.Sequential
	inner   train.Stepper
	tr      *tracer
	layered bool
	log     *stepLog
	prog    *progress
	// calibrate takes one host-speed sample before every op.
	calibrate bool

	opSpan, optSpan int32
}

func (s *benchStepper) Step(x *tensor.Tensor, y []int) float64 {
	l := s.log
	i := l.n
	if i > 0 && l.bcastOut[i-1] == 0 {
		// train.Run skipped the optimizer for the previous step
		// (non-finite loss or gradient): that op failed.
		s.tr.end(s.optSpan)
		s.tr.end(s.opSpan)
		s.prog.failed.Add(1)
	}
	l.n++
	if s.calibrate {
		l.calibMs[i] = calibrateMs()
	}
	l.stepIn[i] = l.now()
	s.opSpan = s.tr.begin("train.op", -1, int32(i))
	stepSpan := s.tr.begin("train.step", s.opSpan, int32(i))
	var loss float64
	switch {
	case s.inner != nil:
		loss = s.inner.Step(x, y)
	case s.layered:
		loss = layeredStep(s.model, x, y, s.tr, stepSpan, int32(i))
	default:
		nn.ZeroGrads(s.model)
		out := s.model.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = nn.SoftmaxCrossEntropy(out, y)
		s.model.Backward(grad)
	}
	s.tr.end(stepSpan)
	l.stepOut[i] = l.now()
	l.loss[i] = loss
	s.optSpan = s.tr.begin("optim.step", s.opSpan, int32(i))
	return loss
}

func (s *benchStepper) Broadcast() {
	l := s.log
	i := l.n - 1
	s.tr.end(s.optSpan)
	l.bcastIn[i] = l.now()
	b := s.tr.begin("train.broadcast", s.opSpan, int32(i))
	if s.inner != nil {
		s.inner.Broadcast()
	}
	s.tr.end(b)
	l.bcastOut[i] = l.now()
	s.tr.end(s.opSpan)
	s.prog.ok.Add(1)
}

func (s *benchStepper) SyncReplicas() {
	if s.inner != nil {
		s.inner.SyncReplicas()
	}
}

// Span names per layer kind, precomputed so the traced loop does not
// build strings.
var fwdSpan = map[string]string{"approxconv": "nn.approxconv.fwd", "batchnorm": "nn.batchnorm.fwd", "linear": "nn.linear.fwd", "other": "nn.other.fwd"}
var bwdSpan = map[string]string{"approxconv": "nn.approxconv.bwd", "batchnorm": "nn.batchnorm.bwd", "linear": "nn.linear.bwd", "other": "nn.other.bwd"}

func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.ApproxConv2D:
		return "approxconv"
	case *nn.BatchNorm2D:
		return "batchnorm"
	case *nn.Linear, *nn.ApproxLinear:
		return "linear"
	default: // ReLU, pooling, flatten, float Conv2D of the float twin
		return "other"
	}
}

// layerWalk drives a model leaf layer by leaf layer, one span each. It
// mirrors Sequential.Forward/Backward/Predict and Residual's
// main(x)+shortcut(x) exactly, so its outputs are bit-identical to the
// model's own methods (checked by the retrain verification).
type layerWalk struct {
	tr     *tracer
	parent int32
	op     int32
	// probe, when set, sees every leaf's input and output.
	probe func(l nn.Layer, x, y *tensor.Tensor)
}

func (w *layerWalk) forward(l nn.Layer, x *tensor.Tensor, infer bool) *tensor.Tensor {
	switch t := l.(type) {
	case *nn.Sequential:
		for _, in := range t.Layers {
			x = w.forward(in, x, infer)
		}
		return x
	case *nn.Residual:
		m := w.forward(t.Main, x, infer)
		s := w.forward(t.Shortcut, x, infer)
		sp := w.tr.begin(fwdSpan["other"], w.parent, w.op)
		out := m.Clone()
		out.Add(s)
		w.tr.end(sp)
		return out
	}
	sp := w.tr.begin(fwdSpan[kindOf(l)], w.parent, w.op)
	var y *tensor.Tensor
	if infer {
		y = nn.Infer(l, x)
	} else {
		y = l.Forward(x, true)
	}
	w.tr.end(sp)
	if w.probe != nil {
		w.probe(l, x, y)
	}
	return y
}

func (w *layerWalk) backward(l nn.Layer, dy *tensor.Tensor) *tensor.Tensor {
	switch t := l.(type) {
	case *nn.Sequential:
		for i := len(t.Layers) - 1; i >= 0; i-- {
			dy = w.backward(t.Layers[i], dy)
		}
		return dy
	case *nn.Residual:
		dm := w.backward(t.Main, dy)
		ds := w.backward(t.Shortcut, dy)
		sp := w.tr.begin(bwdSpan["other"], w.parent, w.op)
		dx := dm.Clone()
		dx.Add(ds)
		w.tr.end(sp)
		return dx
	}
	sp := w.tr.begin(bwdSpan[kindOf(l)], w.parent, w.op)
	dx := l.Backward(dy)
	w.tr.end(sp)
	return dx
}

// layeredStep is the single-replica step with one span per phase and
// per leaf layer.
func layeredStep(m *nn.Sequential, x *tensor.Tensor, y []int, tr *tracer, parent, op int32) float64 {
	z := tr.begin("nn.zero_grads", parent, op)
	nn.ZeroGrads(m)
	tr.end(z)
	f := tr.begin("nn.forward", parent, op)
	out := (&layerWalk{tr: tr, parent: f, op: op}).forward(m, x, false)
	tr.end(f)
	ls := tr.begin("nn.loss", parent, op)
	loss, grad := nn.SoftmaxCrossEntropy(out, y)
	tr.end(ls)
	b := tr.begin("nn.backward", parent, op)
	(&layerWalk{tr: tr, parent: b, op: op}).backward(m, grad)
	tr.end(b)
	return loss
}

// stageTimes records set-up stages in milliseconds.
type stageTimes map[string]float64

func (st stageTimes) since(name string, t time.Time) {
	st[name] += float64(time.Since(t)) / 1e6
}

// buildApproxModel is the set-up every workload shares: registry
// lookup, gradient tables, product LUT, architecture. It makes the same
// calls train.OpForSpec and models.ByKind make, split so each stage is
// timed.
func buildApproxModel(kind, estimator string, seed int64, st stageTimes) (*nn.Sequential, *nn.Op, error) {
	entry, ok := appmult.Lookup(multName)
	if !ok {
		return nil, nil, fmt.Errorf("multiplier %s missing from registry", multName)
	}
	est, err := gradient.ParseEstimator(estimator)
	if err != nil {
		return nil, nil, err
	}
	t := time.Now()
	tables := est.Tables(gradient.MulInfo{Name: entry.Mult.Name(), Bits: entry.Mult.Bits(), HWS: entry.HWS, Mul: entry.Mult.Mul})
	st.since("gradient.tables_ms", t)
	t = time.Now()
	op := nn.NewOp(entry.Mult, tables)
	st.since("appmult.lut_build_ms", t)
	t = time.Now()
	m, err := models.ByKind(kind, models.Config{Classes: classes, InputHW: scale.HW, Width: scale.Width,
		Conv: models.ApproxConv(op), Seed: seed})
	st.since("models.build_ms", t)
	return m, op, err
}

func syntheticData(seed int64, st stageTimes) (trainSet, testSet *data.Dataset) {
	t := time.Now()
	trainSet, testSet = data.Synthetic(data.SynthConfig{Classes: classes, Train: scale.Train, Test: scale.Test, HW: scale.HW, Seed: seed})
	st.since("data.synthetic_ms", t)
	return trainSet, testSet
}

// trainInst is one set-up retrain workload.
type trainInst struct {
	spec              trainSpec
	seed              int64
	model             *nn.Sequential
	op                *nn.Op
	trainSet, testSet *data.Dataset
	stepper           *benchStepper
	stages            stageTimes
	teardown          func()
}

func (in *trainInst) close() {
	if in.teardown != nil {
		in.teardown()
		in.teardown = nil
	}
}

// setupTrain builds the workload from scratch and answers a first op
// (one Step + Broadcast on the first shuffled batch, no optimizer), so
// every scratch arena is sized before the measured phase.
func setupTrain(ts trainSpec, seed int64, prog *progress) (*trainInst, error) {
	st := stageTimes{}
	m, op, err := buildApproxModel(ts.kind, ts.estimator, seed, st)
	if err != nil {
		return nil, err
	}
	in := &trainInst{spec: ts, seed: seed, model: m, op: op, stages: st}
	in.trainSet, in.testSet = syntheticData(seed, st)
	in.stepper = &benchStepper{model: m, prog: &progress{}, log: newStepLog(1)}
	switch ts.topo {
	case topoShards2:
		t := time.Now()
		sh := train.NewShardedStep(m, train.ShardedConfig{Shards: 2})
		st.since("train.shard_clone_ms", t)
		in.stepper.inner = sh
		in.teardown = sh.Detach
	case topoDist2:
		t := time.Now()
		co, stop, err := startDist(m, distSpec(ts, seed))
		if err != nil {
			return nil, err
		}
		st.since("dist.join_ms", t)
		in.stepper.inner = co
		in.teardown = stop
	}
	x, y := firstBatch(in.trainSet, seed)
	in.stepper.Step(x, y)
	in.stepper.Broadcast()
	in.stepper.prog = prog
	return in, nil
}

// firstBatch copies the first minibatch of the seed's shuffle.
func firstBatch(ds *data.Dataset, seed int64) (*tensor.Tensor, []int) {
	it := ds.Iter(scale.BatchSize)
	it.Reset(seed)
	it.Next()
	b := it.Batch()
	return b.X.Clone(), append([]int(nil), b.Y...)
}

func distSpec(ts trainSpec, seed int64) dist.Spec {
	return dist.Spec{Model: ts.kind, Mult: multName, Estimator: ts.estimator, Scale: "reduced",
		Classes: classes, Seed: seed}
}

// startDist starts a coordinator on a loopback port and two in-process
// workers, and waits until both have joined. stop dismisses the
// workers and joins every goroutine.
func startDist(m *nn.Sequential, spec dist.Spec) (*dist.Coordinator, func(), error) {
	co, err := dist.NewCoordinator(m, spec, dist.CoordinatorConfig{Addr: "127.0.0.1:0", Logf: logf, WrapConn: dropReadDeadlines})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A worker ends with nil on Bye, or ctx's error on stop.
			_ = dist.RunWorker(ctx, dist.WorkerConfig{Coordinator: co.Addr(), Seed: int64(w + 1), Logf: logf})
		}(w)
	}
	stop := func() {
		co.Close()
		cancel()
		wg.Wait()
	}
	if err := co.AwaitWorkers(2, 30*time.Second); err != nil {
		stop()
		return nil, nil, err
	}
	return co, stop, nil
}

func scheduleFor(epochs int) optim.Schedule {
	sc := scale
	sc.Epochs = epochs
	return sc.Schedule()
}

// phase runs epochs of training on a fresh step log and returns the
// result with the phase's counters.
func (in *trainInst) phase(epochs int, tr *tracer, layered bool) (train.Result, *phaseStats) {
	in.stepper.log = newStepLog(epochs * stepsPerEpoch())
	in.stepper.tr = tr
	in.stepper.layered = layered
	st := beginPhase()
	res := train.Run(in.model, in.trainSet, in.testSet, train.Config{
		Epochs: epochs, BatchSize: scale.BatchSize, Schedule: scheduleFor(epochs),
		Seed: in.seed, Stepper: in.stepper, Estimator: in.spec.estimator,
	})
	st.finish()
	return res, st
}

// completedOps returns the op times of every op whose Broadcast
// returned.
func (l *stepLog) completedOps() opSample {
	var s opSample
	for i := 0; i < l.n; i++ {
		if l.bcastOut[i] > 0 {
			s.ms = append(s.ms, float64(l.bcastOut[i]-l.stepIn[i])/1e6)
			s.class = append(s.class, 0)
		}
	}
	return s
}

// completedCalib returns the calibration samples of the same ops.
func (l *stepLog) completedCalib() []float64 {
	var out []float64
	for i := 0; i < l.n; i++ {
		if l.bcastOut[i] > 0 {
			out = append(out, l.calibMs[i])
		}
	}
	return out
}

func (l *stepLog) intervals(from, to []int64) []float64 {
	var out []float64
	for i := 0; i < l.n; i++ {
		if l.bcastOut[i] > 0 {
			out = append(out, float64(to[i]-from[i])/1e6)
		}
	}
	return out
}

// gaps splits the time between ops into in-epoch gaps (the data
// iterator) and epoch-boundary gaps (evaluation).
func (l *stepLog) gaps() (dataNext, eval []float64) {
	for i := 0; i+1 < l.n; i++ {
		if l.bcastOut[i] == 0 {
			continue
		}
		g := float64(l.stepIn[i+1]-l.bcastOut[i]) / 1e6
		if (i+1)%stepsPerEpoch() == 0 {
			eval = append(eval, g)
		} else {
			dataNext = append(dataNext, g)
		}
	}
	return dataNext, eval
}

// verifyTrain checks one phase: every loss finite, a healthy run, the
// planned number of epochs, and (over more than one epoch) a last-epoch
// mean loss below the first's. It returns how many ops verified.
func verifyTrain(l *stepLog, res train.Result, epochs int) (ok int, notes []string) {
	for i := 0; i < l.n; i++ {
		if l.bcastOut[i] > 0 && finite(l.loss[i]) {
			ok++
		}
	}
	if l.n != epochs*stepsPerEpoch() {
		notes = append(notes, fmt.Sprintf("ran %d steps, planned %d", l.n, epochs*stepsPerEpoch()))
	}
	if !res.Healthy() {
		notes = append(notes, fmt.Sprintf("run not healthy: %d skipped steps, %d rollbacks", res.SkippedSteps, res.Rollbacks))
	}
	if len(res.TrainLoss) != epochs {
		notes = append(notes, fmt.Sprintf("%d epoch losses, want %d", len(res.TrainLoss), epochs))
		return 0, notes
	}
	if first, last := res.TrainLoss[0], res.TrainLoss[epochs-1]; epochs > 1 && !(last < first) {
		// The run did not train: no op of it counts.
		notes = append(notes, fmt.Sprintf("last-epoch loss %.6g not below first-epoch loss %.6g", last, first))
		return 0, notes
	}
	return ok, notes
}

// soloReference retrains the dist workload's model in one process
// (ShardedStep, Shards: 1) for the given epochs: BN-free models must
// give Float64bits-equal epoch losses.
func soloReference(ts trainSpec, seed int64, epochs int, sched optim.Schedule) ([]float64, error) {
	m, _, err := buildApproxModel(ts.kind, ts.estimator, seed, stageTimes{})
	if err != nil {
		return nil, err
	}
	trainSet, testSet := syntheticData(seed, stageTimes{})
	sh := train.NewShardedStep(m, train.ShardedConfig{Shards: 1})
	defer sh.Detach()
	x, y := firstBatch(trainSet, seed)
	sh.Step(x, y)
	sh.Broadcast()
	res := train.Run(m, trainSet, testSet, train.Config{
		Epochs: epochs, BatchSize: scale.BatchSize, Schedule: sched,
		Seed: seed, Stepper: sh, Estimator: ts.estimator,
	})
	return res.TrainLoss, nil
}

// bitEqualPrefix counts how many leading epochs of got equal want
// bit for bit.
func bitEqualPrefix(got, want []float64) int {
	n := 0
	for n < len(got) && n < len(want) && math.Float64bits(got[n]) == math.Float64bits(want[n]) {
		n++
	}
	return n
}

const referenceEpochs = 2

// runTrain is the child's whole run of one retrain workload.
func runTrain(ts trainSpec, rc *runCtx) (*report, error) {
	if rc.trace {
		return traceTrain(ts, rc)
	}
	epochs := ts.epochs(rc.seconds)
	rc.prog.planned.Store(int64(epochs * stepsPerEpoch()))
	rep := newReport()

	var in *trainInst
	first, err := timedSetup(true, func() (err error) {
		in, err = setupTrain(ts, rc.seed, rc.prog)
		return err
	})
	if err != nil {
		return nil, err
	}
	setupS := []float64{first}
	in.stepper.calibrate = true
	res, st := in.phase(epochs, nil, false)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	log := in.stepper.log
	in.close()

	for k := 1; k < rc.setupCount(ts.setups); k++ {
		var again *trainInst
		s, err := timedSetup(true, func() (err error) {
			again, err = setupTrain(ts, rc.seed, &progress{})
			return err
		})
		if err != nil {
			return nil, err
		}
		again.close()
		setupS = append(setupS, s)
	}

	ok, notes := verifyTrain(log, res, epochs)
	if ts.topo == topoDist2 {
		want, err := soloReference(ts, rc.seed, referenceEpochs, scheduleFor(epochs))
		if err != nil {
			return nil, err
		}
		if n := bitEqualPrefix(res.TrainLoss, want); n < referenceEpochs {
			notes = append(notes, fmt.Sprintf("epoch %d loss differs from the solo Shards:1 reference (%v vs %v)",
				n+1, res.TrainLoss[:min(len(res.TrainLoss), referenceEpochs)], want))
			ok -= (referenceEpochs - n) * stepsPerEpoch()
		}
	}
	rep.notes = notes
	raw, calib := log.completedOps(), log.completedCalib()
	rep.set(&measured{ops: opSample{ms: normalise(raw.ms, calib), class: raw.class}, planned: epochs * stepsPerEpoch(), ok: max(ok, 0),
		imagesPerOp: scale.BatchSize, clients: 1, stats: st, peakRSSMB: rss, setupS: setupS})
	rep.info["op_ms_p10_raw"] = fmt.Sprintf("%.4g", p10(raw.ms))
	rep.info["host_speed_factor"] = fmt.Sprintf("%.4g", speedFactor(calib))
	rep.info["final_loss"] = fmt.Sprintf("%.9g", res.FinalLoss())
	rep.info["epochs"] = fmt.Sprint(epochs)
	return rep, nil
}

// traceTrain is the --trace 1 run: a quarter-length untraced phase for
// the run.* context, the same phase again on a fresh instance with
// spans on, and the bench-driven loops the per-layer metrics need.
func traceTrain(ts trainSpec, rc *runCtx) (*report, error) {
	epochs := max(1, ts.epochs(rc.seconds)/4)
	ops := epochs * stepsPerEpoch()
	rc.prog.planned.Store(int64(2 * ops))
	rep := newReport()
	out := rep.layer

	// Untraced quarter.
	in, err := setupTrain(ts, rc.seed, rc.prog)
	if err != nil {
		return nil, err
	}
	for k, v := range in.stages {
		out[k] = v
	}
	resU, stU := in.phase(epochs, nil, false)
	logU := in.stepper.log
	in.close()
	okU, notes := verifyTrain(logU, resU, epochs)
	untraced := logU.completedOps()
	runContext(out, untraced, scale.BatchSize, stU)

	// Traced quarter on a fresh instance from the same seed.
	in, err = setupTrain(ts, rc.seed, rc.prog)
	if err != nil {
		return nil, err
	}
	defer in.close()
	tr := newTracer(ops * 96) // vgg11: ~70 spans per layered op
	before := readCounters()
	poolBefore, _ := obs.Default().ReadHistogram("tensor_pool_job_ms")
	resT, _ := in.phase(epochs, tr, ts.topo == topoSolo)
	delta := readCounters().since(before)
	logT := in.stepper.log
	okT, notesT := verifyTrain(logT, resT, epochs)
	notes = append(notes, notesT...)
	if n := bitEqualPrefix(resT.TrainLoss, resU.TrainLoss); n < epochs {
		// On the solo workload this is the check that the bench-driven
		// per-layer loop computes what Sequential.Forward/Backward do.
		notes = append(notes, fmt.Sprintf("traced epoch %d loss %v differs from untraced %v", n+1, resT.TrainLoss, resU.TrainLoss))
		okT = 0
	}
	spans := tr.recorded()
	traceNotes, err := finishTrace(rc.outDir, ts.name, tr)
	if err != nil {
		return nil, err
	}
	notes = append(notes, traceNotes...)

	traced := logT.completedOps()
	if u := p10(untraced.ms); u > 0 {
		out["run.trace_overhead_share"] = p10(traced.ms)/u - 1
	}
	dispatchPerOp(out, delta, ops)
	out["tensor.pool_job_ms_p50"] = histMedianSince("tensor_pool_job_ms", poolBefore)
	out["train.step_ms_p50"] = p50(logT.intervals(logT.stepIn, logT.stepOut))
	out["optim.step_ms_p50"] = p50(logT.intervals(logT.stepOut, logT.bcastIn))
	out["train.broadcast_ms_p50"] = p50(logT.intervals(logT.bcastIn, logT.bcastOut))
	dn, ev := logT.gaps()
	out["data.next_ms_p50"] = p50(dn)
	out["train.eval_ms_p50"] = p50(ev)
	out["train.final_loss"] = resT.FinalLoss()
	if ts.topo == topoDist2 {
		out["dist.step_ms_p50"] = out["train.step_ms_p50"]
		out["dist.frames_per_op"] = (delta["dist_frames_sent"] + delta["dist_frames_recv"]) / float64(ops)
		out["dist.frame_bytes_per_op"] = (delta["dist_bytes_sent"] + delta["dist_bytes_recv"]) / float64(ops)
		out["dist.step_retries"] = delta["dist_retries"]
		out["dist.slice_reassignments"] = delta["dist_reassign"]
	}

	// Bench-driven loops on twins built from the same seed.
	x, y := firstBatch(in.trainSet, rc.seed)
	steps := min(max(ops/4, 4), 40)
	layerSpans := spans
	layerOps := ops
	soloStep := logT.intervals(logT.stepIn, logT.stepOut)
	if ts.topo != topoSolo {
		// The step runs inside ShardedStep or the workers, so the
		// per-layer numbers come from a single-replica loop on a twin.
		twin, _, err := buildApproxModel(ts.kind, ts.estimator, rc.seed, stageTimes{})
		if err != nil {
			return nil, err
		}
		// A second twin takes the same first step through the model's
		// own methods: the walk must compute the same bits.
		plain, _, err := buildApproxModel(ts.kind, ts.estimator, rc.seed, stageTimes{})
		if err != nil {
			return nil, err
		}
		want := directStepLoss(plain, x, y)
		var dropped int32
		layerSpans, soloStep, dropped = walkReps(steps, 160, func(tr *tracer, root, op int32) { // resnet18: ~140 spans per op
			got := layeredStep(twin, x, y, tr, root, op)
			if op == 0 && math.Float64bits(got) != math.Float64bits(want) {
				notes = append(notes, fmt.Sprintf("layer walk loss %v differs from Sequential.Forward loss %v", got, want))
			}
		})
		if dropped > 0 {
			notes = append(notes, fmt.Sprintf("layer trace buffer full: %d spans dropped", dropped))
		}
		layerOps = steps
	}
	layerMetrics(out, layerSpans, layerOps)
	if w := p10(logT.intervals(logT.stepIn, logT.stepOut)); w > 0 {
		out["train.shard_speedup"] = p10(soloStep) / w
	}

	floatTwin, err := models.ByKind(ts.kind, models.Config{Classes: classes, InputHW: scale.HW,
		Width: scale.Width, Seed: rc.seed})
	if err != nil {
		return nil, err
	}
	floatStep := timeReps(steps, func() { directStepLoss(floatTwin, x, y) })
	out["nn.float_step_ms_p10"] = p10(floatStep)
	if f := p10(floatStep); f > 0 {
		out["train.approx_over_float"] = p10(soloStep) / f
	}

	if ts.topo == topoDist2 {
		twin, _, err := buildApproxModel(ts.kind, ts.estimator, rc.seed, stageTimes{})
		if err != nil {
			return nil, err
		}
		sh := train.NewShardedStep(twin, train.ShardedConfig{Shards: 2})
		var inproc []float64
		for i := 0; i <= steps*4; i++ {
			t := time.Now()
			sh.Step(x, y)
			d := float64(time.Since(t)) / 1e6
			sh.Broadcast()
			if i > 0 {
				inproc = append(inproc, d)
			}
		}
		sh.Detach()
		out["dist.overhead_ms_p50"] = out["dist.step_ms_p50"] - p50(inproc)
	}

	kernelMetrics(out, in.op, in.model, x, true)

	rep.notes = notes
	rep.planned = 2 * ops
	rep.ok = okU + okT
	rep.info["trace_spans"] = fmt.Sprint(len(spans))
	return rep, nil
}

// finishTrace checks the trace's bookkeeping (per op, self times sum to
// the root span within 1 %; nothing dropped) and writes it to
// <outDir>/trace-<workload>.json.
func finishTrace(outDir, workload string, tr *tracer) (notes []string, err error) {
	if _, err := checkSelfSums(tr.recorded(), 0.01); err != nil {
		notes = append(notes, err.Error())
	}
	if d := tr.dropped.Load(); d > 0 {
		notes = append(notes, fmt.Sprintf("trace buffer full: %d spans dropped", d))
	}
	return notes, writeTrace(filepath.Join(outDir, "trace-"+workload+".json"), workload, tr)
}

// walkReps calls walk n+1 times, each under its own root "train.step"
// span of a private tracer sized spansPerOp per call, and returns the
// spans and call times (ms) of the last n calls; call 0 is the warm-up.
func walkReps(n, spansPerOp int, walk func(tr *tracer, root, op int32)) (spans []span, ms []float64, dropped int32) {
	tr := newTracer((n + 1) * spansPerOp)
	for i := int32(0); i <= int32(n); i++ {
		t := time.Now()
		root := tr.begin("train.step", -1, i)
		walk(tr, root, i)
		tr.end(root)
		if i > 0 {
			ms = append(ms, float64(time.Since(t))/1e6)
		}
	}
	for _, s := range tr.recorded() {
		if s.Op > 0 {
			spans = append(spans, s)
		}
	}
	return spans, ms, tr.dropped.Load()
}

// timeReps calls fn n+1 times and returns the last n call times in ms;
// the first call is the warm-up that sizes arenas and fills caches.
func timeReps(n int, fn func()) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i <= n; i++ {
		t := time.Now()
		fn()
		if i > 0 {
			out = append(out, float64(time.Since(t))/1e6)
		}
	}
	return out
}

// directStepLoss is one single-replica step through the model's own
// methods, without an optimizer.
func directStepLoss(m *nn.Sequential, x *tensor.Tensor, y []int) float64 {
	nn.ZeroGrads(m)
	out := m.Forward(x, true)
	loss, grad := nn.SoftmaxCrossEntropy(out, y)
	m.Backward(grad)
	return loss
}

// layerMetrics turns the spans of a layered loop into the nn.* per-kind
// self times and the share of the step they explain.
func layerMetrics(out map[string]float64, spans []span, ops int) {
	out["nn.forward_ms_p50"] = p50(durationsOf(spans, "nn.forward"))
	out["nn.loss_ms_p50"] = p50(durationsOf(spans, "nn.loss"))
	out["nn.backward_ms_p50"] = p50(durationsOf(spans, "nn.backward"))
	self := selfByName(spans, ops)
	var layers float64
	for _, names := range []map[string]string{fwdSpan, bwdSpan} {
		for _, name := range names {
			out[name+"_ms"] = self[name]
			layers += self[name]
		}
	}
	var step float64
	for _, d := range durationsOf(spans, "train.step") {
		step += d
	}
	if step > 0 {
		out["nn.layers_cover_share"] = layers * float64(ops) / step
	}
}

// kernelMetrics times Op.ForwardGEMM (and BackwardGEMM when training)
// at the largest ApproxConv2D GEMM shape x produces in model.
func kernelMetrics(out map[string]float64, op *nn.Op, model *nn.Sequential, x *tensor.Tensor, backward bool) {
	var rows, outC, k int
	probe := &layerWalk{probe: func(l nn.Layer, _, y *tensor.Tensor) {
		c, ok := l.(*nn.ApproxConv2D)
		if !ok {
			return
		}
		r, kk := y.Shape[0]*y.Shape[2]*y.Shape[3], c.InC*c.K*c.K
		if r*c.OutC*kk > rows*outC*k {
			rows, outC, k = r, c.OutC, kk
		}
	}}
	// A clone, so probing leaves the measured model's state alone.
	probe.forward(models.Clone(model), x, true)
	if rows == 0 {
		return
	}
	rng := rand.New(rand.NewSource(42))
	levels := 1 << uint(op.Bits)
	xq := make([]uint8, rows*k)
	wq := make([]uint8, outC*k)
	dy := make([]float32, rows*outC)
	for i := range xq {
		xq[i] = uint8(rng.Intn(levels))
	}
	for i := range wq {
		wq[i] = uint8(rng.Intn(levels))
	}
	for i := range dy {
		dy[i] = float32(rng.NormFloat64())
	}
	pw := []quant.Params{quant.Calibrate(-1, 1, op.Bits)}
	px := quant.Calibrate(0, 2, op.Bits)
	var s nn.KernelScratch
	dst := make([]float32, rows*outC)
	bias := make([]float32, outC)
	const reps = 30
	out["nn.kernel.fwd_gemm_ms"] = p10(timeReps(reps, func() {
		op.ForwardGEMM(&s, dst, xq, wq, rows, outC, k, pw, px, bias)
	}))
	if !backward {
		return
	}
	dw := make([]float32, outC*k)
	dx := make([]float32, rows*k)
	gsum := make([]float32, outC)
	xClip := make([]bool, rows*k)
	wClip := make([]bool, outC*k)
	out["nn.kernel.bwd_gemm_ms"] = p10(timeReps(reps, func() {
		op.BackwardGEMM(&s, dw, dx, gsum, dy, xq, wq, xClip, wClip, rows, outC, k, pw, px)
	}))
}

package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/faults"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
	"github.com/appmult/retrain/internal/wire"
	"github.com/appmult/retrain/internal/wiretest"
)

// tinySpec is the shared job description for the end-to-end tests:
// small enough to train in well under a second per run.
func tinySpec(model string) Spec {
	return Spec{
		Model: model, Mult: "mul8u_acc", Estimator: "ste", Scale: "tiny",
		Seed: 11, Epochs: 2, BatchSize: 10,
	}
}

// runSolo trains the spec in-process with the given shard count and
// returns the trained model.
func runSolo(t *testing.T, spec Spec, shards int, mut func(*train.Config)) *nn.Sequential {
	t.Helper()
	m, sc, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	trainSet, testSet := spec.Datasets(sc)
	cfg := train.Config{
		Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(),
		Seed: spec.Seed, Shards: shards,
	}
	if mut != nil {
		mut(&cfg)
	}
	train.Run(m, trainSet, testSet, cfg)
	return m
}

// cluster runs a coordinator plus n in-process workers over real
// localhost TCP.
type cluster struct {
	t      *testing.T
	co     *Coordinator
	model  *nn.Sequential
	scale  train.Scale
	spec   Spec
	wg     sync.WaitGroup
	cancel []context.CancelFunc
}

// startCluster brings up the coordinator and n workers and waits for
// all n to be admitted. Each worker gets its own context (for targeted
// kills); worker i's connections pass through wrap(i) when non-nil.
func startCluster(t *testing.T, spec Spec, n int, ccfg CoordinatorConfig,
	wcfg WorkerConfig, wrap func(i int) func(net.Conn) net.Conn) *cluster {
	t.Helper()
	m, sc, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ccfg.Addr = "127.0.0.1:0"
	if ccfg.Logf == nil {
		ccfg.Logf = t.Logf
	}
	co, err := NewCoordinator(m, spec, ccfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	cl := &cluster{t: t, co: co, model: m, scale: sc, spec: spec}
	for i := 0; i < n; i++ {
		cl.addWorker(wcfg, wrap, i)
	}
	if err := co.AwaitWorkers(n, 30*time.Second); err != nil {
		t.Fatalf("await workers: %v", err)
	}
	t.Cleanup(cl.stop)
	return cl
}

func (cl *cluster) addWorker(wcfg WorkerConfig, wrap func(i int) func(net.Conn) net.Conn, i int) {
	ctx, cancel := context.WithCancel(context.Background())
	cl.cancel = append(cl.cancel, cancel)
	cfg := wcfg
	cfg.Coordinator = cl.co.Addr()
	cfg.Seed = int64(i)
	if cfg.Logf == nil {
		cfg.Logf = cl.t.Logf
	}
	if wrap != nil {
		cfg.WrapConn = wrap(i)
	}
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		RunWorker(ctx, cfg)
	}()
}

// run drives the full training loop with the coordinator as stepper.
func (cl *cluster) run(mut func(*train.Config)) train.Result {
	trainSet, testSet := cl.spec.Datasets(cl.scale)
	cfg := train.Config{
		Epochs: cl.scale.Epochs, BatchSize: cl.scale.BatchSize,
		Schedule: cl.scale.Schedule(), Seed: cl.spec.Seed, Stepper: cl.co,
	}
	if mut != nil {
		mut(&cfg)
	}
	return train.Run(cl.model, trainSet, testSet, cfg)
}

// stop dismisses the workers and reaps their goroutines.
func (cl *cluster) stop() {
	cl.co.Close()
	for _, cancel := range cl.cancel {
		cancel()
	}
	cl.wg.Wait()
}

// assertBitIdentical compares parameters and layer state bit for bit.
func assertBitIdentical(t *testing.T, got, want *nn.Sequential, label string) {
	t.Helper()
	gp, wp := got.Params(), want.Params()
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d params vs %d", label, len(gp), len(wp))
	}
	for i := range gp {
		for j := range gp[i].Value.Data {
			a, b := gp[i].Value.Data[j], wp[i].Value.Data[j]
			if math.Float32bits(a) != math.Float32bits(b) {
				t.Fatalf("%s: param %q[%d] differs: %g (%08x) != %g (%08x)",
					label, gp[i].Name, j, a, math.Float32bits(a), b, math.Float32bits(b))
			}
		}
	}
	gs, ws := nn.CollectState(got), nn.CollectState(want)
	for i := range gs {
		for j := range gs[i] {
			if math.Float32bits(gs[i][j]) != math.Float32bits(ws[i][j]) {
				t.Fatalf("%s: state vector %d[%d] differs: %g != %g",
					label, i, j, gs[i][j], ws[i][j])
			}
		}
	}
}

// TestDistBitIdenticalToSolo is the tentpole's headline property: two
// workers over TCP reproduce the in-process -shards 1 run bit for bit
// on a BN-free model — same losses, same parameters, same observer
// state — because the slice plan, reduction tree, and observer merge
// are identical and worker count only changes who computes each slice.
func TestDistBitIdenticalToSolo(t *testing.T) {
	spec := tinySpec("lenet")
	solo := runSolo(t, spec, 1, nil)
	cl := startCluster(t, spec, 2, CoordinatorConfig{}, WorkerConfig{}, nil)
	cl.run(nil)
	assertBitIdentical(t, cl.model, solo, "dist(2 workers) vs solo(-shards 1)")
}

// killAfterWrites cancels a context after the wrapped connection has
// written n frames — an abrupt mid-step death from the coordinator's
// point of view.
type killAfterWrites struct {
	net.Conn
	n      atomic.Int64
	limit  int64
	cancel context.CancelFunc
}

func (c *killAfterWrites) Write(b []byte) (int, error) {
	if c.n.Add(1) > c.limit {
		c.cancel()
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// TestDistWorkerKillMidRun kills one of two workers partway through
// training. The coordinator must detect the death, reassign the dead
// worker's outstanding slices to the survivor within the same step,
// and finish the run with results still bit-identical to solo.
func TestDistWorkerKillMidRun(t *testing.T) {
	spec := tinySpec("lenet")
	solo := runSolo(t, spec, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var killed atomic.Bool
	wrap := func(i int) func(net.Conn) net.Conn {
		if i != 1 {
			return nil
		}
		return func(c net.Conn) net.Conn {
			killed.Store(true)
			return &killAfterWrites{Conn: c, limit: 12, cancel: cancel}
		}
	}
	cl := startCluster(t, spec, 2, CoordinatorConfig{}, WorkerConfig{}, wrap)
	// Tie worker 1's lifetime to the kill trigger as well.
	go func() {
		<-ctx.Done()
		cl.cancel[1]()
	}()
	lost := proto.Metrics.WorkersLost.Value()
	reassigned := sliceReassignments.Value()
	cl.run(nil)
	if !killed.Load() {
		t.Fatal("kill wrapper never armed")
	}
	if proto.Metrics.WorkersLost.Value() <= lost {
		t.Fatal("coordinator never observed the worker death")
	}
	if sliceReassignments.Value() <= reassigned {
		t.Fatal("no slices were reassigned to the survivor")
	}
	assertBitIdentical(t, cl.model, solo, "dist with mid-run kill vs solo")
}

// killOnResult closes the connection instead of writing the worker's
// n-th slice_result frame, and sets killed: the slice is lost with its
// worker, mid-step.
type killOnResult struct {
	net.Conn
	n      atomic.Int64
	limit  int64
	killed *atomic.Bool
}

func (c *killOnResult) Write(b []byte) (int, error) {
	if len(b) > wire.HeaderLen && b[16] == frameSliceResult && c.n.Add(1) == c.limit {
		c.killed.Store(true)
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// TestDistOnlyWorkerKilledMidStep kills the only worker of a BN-free
// run while it holds a slice, and starts a replacement once the
// coordinator reports it is waiting for one. The step must requeue the
// lost slice to the replacement within the same attempt — no step
// retry — and finish the run bit-identical to solo.
func TestDistOnlyWorkerKilledMidStep(t *testing.T) {
	spec := tinySpec("lenet")
	solo := runSolo(t, spec, 1, nil)
	var killed atomic.Bool
	wrap := func(i int) func(net.Conn) net.Conn {
		if i != 0 {
			return nil
		}
		return func(c net.Conn) net.Conn {
			if killed.Load() {
				c.Close() // the killed worker stays dead: its redials fail
			}
			return &killOnResult{Conn: c, limit: 3, killed: &killed}
		}
	}
	var cl *cluster
	var mu sync.Mutex
	parked := 0
	logf := func(format string, args ...any) {
		if strings.HasPrefix(format, "no live workers") {
			// On the training goroutine, inside the step.
			mu.Lock()
			parked++
			mu.Unlock()
			cl.addWorker(WorkerConfig{}, nil, 1)
		}
		t.Logf(format, args...)
	}
	cl = startCluster(t, spec, 1, CoordinatorConfig{Logf: logf}, WorkerConfig{}, wrap)
	retries, reassigned := stepRetries.Value(), sliceReassignments.Value()
	cl.run(nil)
	if !killed.Load() {
		t.Fatal("the kill wrapper never fired")
	}
	mu.Lock()
	defer mu.Unlock()
	if parked != 1 {
		t.Fatalf("the coordinator waited for a worker %d times, want 1", parked)
	}
	if sliceReassignments.Value() <= reassigned {
		t.Fatal("the lost slice was never requeued")
	}
	if got := stepRetries.Value() - retries; got != 0 {
		t.Fatalf("dist_step_retries_total moved by %v, want 0", got)
	}
	assertBitIdentical(t, cl.model, solo, "dist with its only worker replaced mid-step vs solo")
}

// recountResult re-frames the worker's first slice_result with its slot
// count raised by one: a well-formed frame, seq and CRC intact, whose
// count disagrees with the run the coordinator assigned.
type recountResult struct {
	net.Conn
	done *atomic.Bool
}

func (c *recountResult) Write(b []byte) (int, error) {
	if len(b) > wire.HeaderLen && b[16] == frameSliceResult && c.done.CompareAndSwap(false, true) {
		p := append([]byte(nil), b[wire.HeaderLen:len(b)-4]...)
		binary.LittleEndian.PutUint32(p[16:], binary.LittleEndian.Uint32(p[16:])+1) // count
		if _, err := c.Conn.Write(proto.Frame(nil, binary.LittleEndian.Uint64(b[8:]), frameSliceResult, p)); err != nil {
			return 0, err
		}
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// TestDistResultCountMismatchReassigns: a slice_result whose slot count
// differs from the run its worker holds kills that worker, and the run
// goes to a live worker within the same step, so the run still ends
// bit-identical to solo.
func TestDistResultCountMismatchReassigns(t *testing.T) {
	spec := tinySpec("lenet")
	spec.BatchSize = 32 // four slices: a run of two per worker
	solo := runSolo(t, spec, 1, nil)
	var tampered atomic.Bool
	wrap := func(i int) func(net.Conn) net.Conn {
		if i != 1 {
			return nil
		}
		return func(c net.Conn) net.Conn { return &recountResult{Conn: c, done: &tampered} }
	}
	var mu sync.Mutex
	var log []string
	logf := func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf(format, args...))
		mu.Unlock()
		t.Logf(format, args...)
	}
	cl := startCluster(t, spec, 2, CoordinatorConfig{Logf: logf}, WorkerConfig{}, wrap)
	reassigned := sliceReassignments.Value()
	cl.run(nil)
	if !tampered.Load() {
		t.Fatal("no result was re-counted")
	}
	if sliceReassignments.Value() <= reassigned {
		t.Fatal("the run was never reassigned")
	}
	mu.Lock()
	killed := slices.ContainsFunc(log, func(l string) bool { return strings.Contains(l, "slice result: carries 3 slices, the run has 2") })
	mu.Unlock()
	if !killed {
		t.Fatal("the coordinator never killed the worker for its count")
	}
	assertBitIdentical(t, cl.model, solo, "dist with a re-counted result vs solo")
}

// stallWrites silently discards every write after the first n — the
// connection looks alive (reads still flow) but pongs and results stop
// arriving, which only the heartbeat monitor can detect.
type stallWrites struct {
	net.Conn
	n     atomic.Int64
	limit int64
}

func (c *stallWrites) Write(b []byte) (int, error) {
	if c.n.Add(1) > c.limit {
		return len(b), nil
	}
	return c.Conn.Write(b)
}

// TestDistHeartbeatStallRecovery stalls one worker's outbound traffic
// mid-run: the coordinator's heartbeat monitor must declare it dead,
// reassign its slices, and — because only that first connection is
// stalled — readmit the worker when it reconnects. The run must still
// match solo bit for bit.
func TestDistHeartbeatStallRecovery(t *testing.T) {
	spec := tinySpec("lenet")
	spec.Epochs = 8 // long enough that the stalled worker's redial lands mid-run
	solo := runSolo(t, spec, 1, nil)
	var conns atomic.Int64
	wrap := func(i int) func(net.Conn) net.Conn {
		if i != 1 {
			return nil
		}
		return func(c net.Conn) net.Conn {
			if conns.Add(1) == 1 {
				return &stallWrites{Conn: c, limit: 10}
			}
			return c
		}
	}
	cl := startCluster(t, spec, 2,
		CoordinatorConfig{HeartbeatEvery: 20 * time.Millisecond, HeartbeatTimeout: 200 * time.Millisecond},
		WorkerConfig{
			HeartbeatTimeout: 2 * time.Second,
			Dial:             wire.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		}, wrap)
	hb := proto.Metrics.HeartbeatTimeouts.Value()
	cl.run(nil)
	if proto.Metrics.HeartbeatTimeouts.Value() <= hb {
		t.Fatal("heartbeat monitor never fired")
	}
	if conns.Load() < 2 {
		t.Fatal("stalled worker never reconnected")
	}
	assertBitIdentical(t, cl.model, solo, "dist with heartbeat stall vs solo")
}

// lateJoin is the coordinator as a train.Stepper that starts a second
// worker after step 2 and admits it before step 3, so the join lands
// mid-run however fast the steps are.
type lateJoin struct {
	*Coordinator
	cl    *cluster
	steps int
}

func (l *lateJoin) Step(x *tensor.Tensor, y []int) float64 {
	if l.steps++; l.steps == 3 {
		l.cl.addWorker(WorkerConfig{}, nil, 1)
		if err := l.AwaitWorkers(2, 30*time.Second); err != nil {
			l.cl.t.Fatalf("late worker: %v", err)
		}
	}
	return l.Coordinator.Step(x, y)
}

// TestDistLateJoin starts with one worker and adds a second mid-run.
// The newcomer must be admitted at a safe point, receive full state,
// and share the load without perturbing a single bit.
func TestDistLateJoin(t *testing.T) {
	spec := tinySpec("lenet")
	spec.Epochs = 4
	solo := runSolo(t, spec, 1, nil)
	cl := startCluster(t, spec, 1, CoordinatorConfig{}, WorkerConfig{}, nil)
	joined := workersJoined.Value()
	late := &lateJoin{Coordinator: cl.co, cl: cl}
	cl.run(func(cfg *train.Config) { cfg.Stepper = late })
	if late.steps < 3 || workersJoined.Value() < joined+1 {
		t.Fatalf("second worker never joined (%d steps)", late.steps)
	}
	assertBitIdentical(t, cl.model, solo, "dist with late join vs solo")
}

// TestDistFaultInjectionBitIdentity runs with a seeded network-fault
// injector on every connection, both directions: dropped, corrupted,
// and truncated frames. Every fault must be caught by the frame
// protocol (seq/CRC/magic), recovered via reconnect + state re-sync,
// and the final result must STILL be bit-identical to solo — faults
// may cost time, never correctness.
func TestDistFaultInjectionBitIdentity(t *testing.T) {
	spec := tinySpec("lenet")
	solo := runSolo(t, spec, 1, nil)
	var mu sync.Mutex
	var injected []*faults.FaultyConn
	model := faults.NetFaultModel{DropRate: 0.01, CorruptRate: 0.01, TruncateRate: 0.005, Seed: 7}
	wrapOne := func(c net.Conn) net.Conn {
		fc := model.Wrap(c)
		mu.Lock()
		injected = append(injected, fc)
		mu.Unlock()
		return fc
	}
	wrap := func(i int) func(net.Conn) net.Conn { return wrapOne }
	cl := startCluster(t, spec, 2,
		CoordinatorConfig{WrapConn: wrapOne, HeartbeatEvery: 50 * time.Millisecond, HeartbeatTimeout: time.Second},
		WorkerConfig{HeartbeatTimeout: 2 * time.Second, Dial: wire.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}},
		wrap)
	cl.run(nil)
	mu.Lock()
	total := 0
	for _, fc := range injected {
		total += fc.InjectedTotal()
	}
	mu.Unlock()
	if total == 0 {
		t.Fatal("fault injector never fired; test proves nothing")
	}
	t.Logf("injected %d faults across %d connections", total, len(injected))
	assertBitIdentical(t, cl.model, solo, "dist under fault injection vs solo")
}

// TestDistSyncBNBitIdentical runs a BatchNorm model (vgg11) with two
// workers: cross-node sync-BN through the coordinator-hosted barrier
// must reproduce the in-process -shards 2 run bit for bit — same
// moment folds, same running-statistics updates, same gradients.
func TestDistSyncBNBitIdentical(t *testing.T) {
	spec := tinySpec("vgg11")
	spec.Epochs = 1
	solo := runSolo(t, spec, 2, nil)
	cl := startCluster(t, spec, 2, CoordinatorConfig{}, WorkerConfig{}, nil)
	cl.run(nil)
	assertBitIdentical(t, cl.model, solo, "dist sync-BN(2 workers) vs -shards 2")
}

// TestDistSyncBNWorkerDeathRetries kills one of three workers during a
// BatchNorm run. Sync-BN attempts have a fixed participant set, so the
// step must abort (no deadlock on the dead participant's barrier
// slot), retry with the two survivors, and complete the run.
func TestDistSyncBNWorkerDeathRetries(t *testing.T) {
	spec := tinySpec("vgg11")
	spec.Epochs = 1
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrap := func(i int) func(net.Conn) net.Conn {
		if i != 2 {
			return nil
		}
		return func(c net.Conn) net.Conn {
			return &killAfterWrites{Conn: c, limit: 30, cancel: cancel}
		}
	}
	cl := startCluster(t, spec, 3, CoordinatorConfig{}, WorkerConfig{}, wrap)
	go func() {
		<-ctx.Done()
		cl.cancel[2]()
	}()
	retries := stepRetries.Value()
	res := cl.run(nil)
	if stepRetries.Value() <= retries {
		t.Fatal("no sync-BN step retry was recorded")
	}
	if len(res.TrainLoss) == 0 || math.IsNaN(res.FinalLoss()) || math.IsInf(res.FinalLoss(), 0) {
		t.Fatalf("run did not complete sanely: %+v", res.TrainLoss)
	}
}

// TestDistResumeBitIdentical interrupts a distributed run after 2
// epochs and resumes it from the TRCKPv1 checkpoint with a fresh
// coordinator and fresh workers. The resumed trajectory must match a
// straight 4-epoch solo run bit for bit — checkpoint state transfer
// plus SyncReplicas must lose nothing.
func TestDistResumeBitIdentical(t *testing.T) {
	spec := tinySpec("lenet")
	spec.Epochs = 4
	straight := runSolo(t, spec, 1, nil)
	ckpt := t.TempDir() + "/dist.ckpt"

	cl1 := startCluster(t, spec, 2, CoordinatorConfig{}, WorkerConfig{}, nil)
	cl1.run(func(cfg *train.Config) {
		cfg.Epochs = 2
		cfg.CkptPath = ckpt
	})
	cl1.stop()

	cl2 := startCluster(t, spec, 2, CoordinatorConfig{}, WorkerConfig{}, nil)
	cl2.run(func(cfg *train.Config) {
		cfg.CkptPath = ckpt
		cfg.Resume = true
	})
	assertBitIdentical(t, cl2.model, straight, "dist resumed 2+2 vs straight 4")
}

// TestCoordinatorStepsHoldNoTimers: a step's gather loop must not leave
// a live timer behind per pass. The module builds with go 1.22 timer
// semantics, under which an unfired time.After timer stays on the heap
// until it fires — WorkerTimeout (2 min) later — so a loop that armed one
// per event grew the heap with the step count.
func TestCoordinatorStepsHoldNoTimers(t *testing.T) {
	cl := startCluster(t, tinySpec("lenet"), 1, CoordinatorConfig{}, WorkerConfig{}, nil)
	x := tensor.New(1, 3, cl.scale.HW, cl.scale.HW)
	y := []int{0}
	steps := func(n int) {
		for i := 0; i < n; i++ {
			cl.co.Step(x, y)
		}
	}
	heapInuse := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	steps(200)
	base := heapInuse()
	const n = 3000
	steps(n)
	if grown := heapInuse() - base; grown > 256<<10 {
		t.Fatalf("heap in use grew %d KiB over %d coordinator steps", grown>>10, n)
	}
}

// TestDistStepAllocs: a warm two-worker step, coordinator and both
// in-process workers together, allocates less per Step+Broadcast than
// the pixels of one 8-row slice, so neither end copies a frame into a
// fresh buffer.
func TestDistStepAllocs(t *testing.T) {
	cl := startCluster(t, tinySpec("lenet"), 2, CoordinatorConfig{}, WorkerConfig{}, nil)
	const rows = 4 * train.DefaultSliceRows // a run of two slices per worker
	x := tensor.New(rows, 3, cl.scale.HW, cl.scale.HW)
	x.RandNormal(rand.New(rand.NewSource(1)), 1)
	y := make([]int, rows)
	step := func() {
		cl.co.Step(x, y)
		cl.co.Broadcast()
	}
	for i := 0; i < 20; i++ {
		step()
	}
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / n
	if pixels := uint64(4 * train.DefaultSliceRows * x.Numel() / rows); perStep >= pixels {
		t.Fatalf("a warm step allocates %d B, not below one slice's %d B of pixels", perStep, pixels)
	}
	t.Logf("%d B per step", perStep)
}

// TestAwaitWorkersTimeout: a coordinator with no workers reports the
// shortfall instead of hanging.
func TestAwaitWorkersTimeout(t *testing.T) {
	spec := tinySpec("lenet")
	m, _, err := spec.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	co, err := NewCoordinator(m, spec, CoordinatorConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer co.Close()
	if err := co.AwaitWorkers(1, 50*time.Millisecond); err == nil {
		t.Fatal("AwaitWorkers returned nil with zero workers")
	}
}

// TestDistWorkerOutlivesHandshakeWindow: admission must clear the read
// deadline that bounded the handshake — the last SetReadDeadline the
// coordinator issues on the connection is the zero time — so an idle
// worker is still admitted, with no death counted, once the handshake
// window has elapsed. (The coordinator used to stop re-arming the
// deadline but leave the armed one in place, dropping every worker 10 s
// after it joined.)
func TestDistWorkerOutlivesHandshakeWindow(t *testing.T) {
	var dl wiretest.Deadlines
	cl := startCluster(t, tinySpec("lenet"), 1, CoordinatorConfig{WrapConn: dl.Wrap}, WorkerConfig{}, nil)
	lost := proto.Metrics.WorkersLost.Value()
	dl.AwaitWindow(t)
	cl.co.drainIdle()
	if n := len(cl.co.live); n != 1 || proto.Metrics.WorkersLost.Value() != lost {
		t.Fatalf("after the handshake window: %d workers admitted, dist_workers_lost_total moved by %v",
			n, proto.Metrics.WorkersLost.Value()-lost)
	}
}

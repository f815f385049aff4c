package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/fleet"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/serve"
	"github.com/appmult/retrain/internal/tensor"
	"github.com/appmult/retrain/internal/train"
)

// httpSpec describes one serve or fleet workload. Both keep cmd/serve's
// default batching window (MaxBatch 8, MaxDelay 2ms): see README.md,
// "Defects found while sizing".
type httpSpec struct {
	name  string
	kind  string
	fleet bool
	// clients is the number of closed-loop connections, never more than
	// nproc on the reference host (2). The fleet gets two. Plain serving
	// gets one: with two, a request can join a batch in the last instants
	// of its window, where only the ~0.6 ms of lenet inference separate
	// its enqueue from the batch's Done — the short fuse of the
	// admit/inflight.Add race (README.md, defect 1). Alone in its batch a
	// request always has the whole 2 ms window as well.
	clients int
	// opsPerSecond sizes the measured phase, as trainSpec.epochsPerSecond.
	opsPerSecond float64
	setups       int
}

func (hs httpSpec) ops(seconds float64) int {
	return max(int(math.Round(seconds*hs.opsPerSecond)), 4*hs.clients)
}

const (
	servePool = 256
	// warmImages are extra pool images only set-up and warm-up send, so
	// they never collide with an image a client plans as fresh.
	warmImages = 8
)

func (hs httpSpec) poolSize() int {
	if hs.fleet {
		return hs.clients * cachePoolPerClient
	}
	return servePool
}

func (hs httpSpec) plan(ops int, seed int64) [][]plannedReq {
	if hs.fleet {
		return cache50Plan(ops, hs.clients, seed)
	}
	return uniformPlan(ops, servePool, hs.clients, seed)
}

func (hs httpSpec) serveSpec(seed int64, ckpt string) serve.Spec {
	return serve.Spec{Name: servedModel, Kind: hs.kind, Classes: classes, InputHW: scale.HW, Width: scale.Width,
		Mult: multName, Ckpt: ckpt, Replicas: 1, Seed: seed}
}

// cacheBytes sizes the router cache to hold cacheWindowEntries answers
// (key bytes + scores + the cache's fixed per-entry overhead).
func cacheBytes() int {
	const entryOverhead = 64
	key := fleet.Key(servedModel, make([]byte, imageLen))
	return cacheWindowEntries * (len(key) + 4*classes + entryOverhead)
}

// httpInst is one set-up serve or fleet workload.
type httpInst struct {
	url      string
	router   *fleet.Router
	stages   stageTimes
	teardown []func()
}

func (in *httpInst) close() {
	for i := len(in.teardown) - 1; i >= 0; i-- {
		in.teardown[i]()
	}
	in.teardown = nil
}

// setupHTTP builds the workload from scratch up to a first answered
// request. tr, when set, adds a server-side span per request.
func setupHTTP(hs httpSpec, seed int64, ckpt string, pool *imagePool, tr *tracer) (_ *httpInst, err error) {
	in := &httpInst{stages: stageTimes{}}
	defer func() {
		if err != nil {
			in.close() // whatever was started before the failure
		}
	}()
	spec := hs.serveSpec(seed, ckpt)
	var handler http.Handler
	if hs.fleet {
		t := time.Now()
		r, err := fleet.NewRouter(fleet.RouterConfig{Addr: "127.0.0.1:0", ReplicaSet: 2, MaxInflight: 256,
			Hedge: true, HedgeMin: 20 * time.Millisecond, HedgeFactor: 2, CacheBytes: cacheBytes(), Logf: logf, WrapConn: dropReadDeadlines})
		if err != nil {
			return nil, err
		}
		in.stages.since("fleet.join_ms", t)
		in.router = r
		in.teardown = append(in.teardown, r.Close)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		in.teardown = append(in.teardown, func() { cancel(); wg.Wait() })
		for w := 0; w < 2; w++ {
			t := time.Now()
			// Autoscaling off: the replica count, and so the work per
			// request, must not depend on how loaded the host is.
			wk, err := fleet.NewWorker(fleet.WorkerConfig{Router: r.Addr(), Models: []serve.Spec{spec}, Seed: int64(w + 1), Logf: logf})
			if err != nil {
				return nil, err
			}
			in.stages["serve.load_ms"] += float64(time.Since(t)) / 1e6 / 2 // per worker
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = wk.Run(ctx) // nil on Bye, ctx's error on stop
				dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer dcancel()
				_ = wk.Drain(dctx) // stops the hosted batchers' dispatchers
			}()
		}
		t = time.Now()
		if err := r.AwaitWorkers(2, 30*time.Second); err != nil {
			return nil, err
		}
		in.stages.since("fleet.join_ms", t)
		handler = r.Handler()
		if tr != nil {
			handler = traced(handler, tr, "fleet.handler")
		}
	} else {
		t := time.Now()
		m, err := serve.Load(spec)
		if err != nil {
			return nil, err
		}
		in.stages.since("serve.load_ms", t)
		srv, err := serve.NewServer(m)
		if err != nil {
			return nil, err
		}
		in.teardown = append(in.teardown, func() {
			dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer dcancel()
			_ = srv.Drain(dctx)
		})
		handler = srv.Handler()
		if tr != nil {
			handler = traced(handler, tr, "serve.handler")
		}
	}
	front, err := serveHTTP(handler)
	if err != nil {
		return nil, err
	}
	in.teardown = append(in.teardown, front.close)
	in.url = front.url
	warm := len(pool.images) - warmImages
	if err := firstRequest(front.url, pool, warm); err != nil {
		return nil, err
	}
	return in, nil
}

// firstRequest sends one image and waits for its answer: the end of a
// set-up.
func firstRequest(url string, pool *imagePool, img int) error {
	ops := runHTTP(url, pool, [][]plannedReq{{{img: int32(img)}}}, nil, &progress{})
	if op := ops[0][0]; op.err != nil || op.status != http.StatusOK {
		return fmt.Errorf("first request: status %d, err %v: %s", op.status, op.err, op.body)
	}
	return nil
}

// warmUp sends each client the warm images twice (on the fleet: eight
// misses, then eight hits), untimed.
func warmUp(url string, pool *imagePool, clients int) {
	warm := len(pool.images) - warmImages
	plan := make([][]plannedReq, clients)
	for c := range plan {
		for round := 0; round < 2; round++ {
			for i := 0; i < warmImages; i++ {
				plan[c] = append(plan[c], plannedReq{img: int32(warm + i)})
			}
		}
	}
	runHTTP(url, pool, plan, nil, &progress{})
}

// writeCheckpoint trains lenet for one epoch and leaves a TRCKPv1
// checkpoint at path: the file the serve workload loads in set-up.
func writeCheckpoint(kind string, seed int64, path string) error {
	m, _, err := buildApproxModel(kind, "ste", seed, stageTimes{})
	if err != nil {
		return err
	}
	trainSet, testSet := syntheticData(seed, stageTimes{})
	res := train.Run(m, trainSet, testSet, train.Config{Epochs: 1, BatchSize: scale.BatchSize,
		Seed: seed, CkptPath: path})
	if !res.Healthy() {
		return fmt.Errorf("checkpoint run not healthy: %+v", res)
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("checkpoint not written: %w", err)
	}
	return nil
}

// reference answers every pool image the plan uses through a second
// load of the same spec, one image at a time per caller through
// Batcher.Do, with as many callers as the plan has clients. canonical maps an image to what the program is expected to
// compute on. Images the plan never sends keep a nil answer.
func reference(spec serve.Spec, pool *imagePool, plan [][]plannedReq, canonical func([]float32) []float32) (*serve.Model, [][]float32, error) {
	m, err := serve.Load(spec)
	if err != nil {
		return nil, nil, err
	}
	used := make([]bool, len(pool.images))
	for _, cl := range plan {
		for _, r := range cl {
			used[r.img] = true
		}
	}
	var imgs []int
	for i, u := range used {
		if u {
			imgs = append(imgs, i)
		}
	}
	want := make([][]float32, len(pool.images))
	callers := len(plan)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(imgs); k += callers {
				i := imgs[k]
				res := m.Batcher().Do(context.Background(), canonical(pool.images[i]), time.Time{})
				if res.Err != nil {
					errs[c] = res.Err
					return
				}
				want[i] = res.Scores
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			drain(m)
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
	}
	return m, want, nil
}

func drain(m *serve.Model) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = m.Batcher().Drain(ctx)
}

func (hs httpSpec) canonical() func([]float32) []float32 {
	if !hs.fleet {
		return func(img []float32) []float32 { return img }
	}
	// The router serves the quantize->dequantize grid point of every
	// image of a cached model; workers announce the default -3..3 grid.
	return func(img []float32) []float32 {
		return fleet.DequantizeImage(nil, fleet.QuantizeImage(nil, img, -3, 3), -3, 3)
	}
}

// runHTTPWorkload is the child's whole run of a serve or fleet workload.
func runHTTPWorkload(hs httpSpec, rc *runCtx) (*report, error) {
	dir, err := os.MkdirTemp(rc.outDir, "tmp-") // the checkpoint file lives here
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckpt := ""
	if !hs.fleet {
		ckpt = filepath.Join(dir, "lenet.ckpt")
		if err := writeCheckpoint(hs.kind, rc.seed, ckpt); err != nil {
			return nil, err
		}
	}
	pool := newImagePool(hs.poolSize()+warmImages, rc.seed)
	if rc.trace {
		return traceHTTP(hs, rc, ckpt, pool)
	}
	plan := hs.plan(hs.ops(rc.seconds), rc.seed)
	rc.prog.planned.Store(int64(planOps(plan)))
	rep := newReport()

	var in *httpInst
	first, err := timedSetup(false, func() (err error) {
		in, err = setupHTTP(hs, rc.seed, ckpt, pool, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	setupS := []float64{first}
	warmUp(in.url, pool, hs.clients)
	st := beginPhase()
	ops := runHTTP(in.url, pool, plan, nil, rc.prog)
	st.finish()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	in.close()

	for k := 1; k < rc.setupCount(hs.setups); k++ {
		var again *httpInst
		s, err := timedSetup(false, func() (err error) {
			again, err = setupHTTP(hs, rc.seed, ckpt, pool, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		again.close()
		setupS = append(setupS, s)
	}

	ref, want, err := reference(hs.serveSpec(rc.seed, ckpt), pool, plan, hs.canonical())
	if err != nil {
		return nil, err
	}
	drain(ref)
	chk := checkReplies(ops, want, hs.fleet)
	rep.notes = chk.notes
	rep.set(&measured{ops: chk.sample, planned: planOps(plan), ok: chk.ok, imagesPerOp: 1, clients: hs.clients,
		stats: st, peakRSSMB: rss, setupS: setupS})
	rep.info["planned_repeat_share"] = fmt.Sprintf("%.4f", plannedRepeatShare(plan))
	return rep, nil
}

// traceHTTP is the --trace 1 run: an untraced quarter, a traced quarter
// on a fresh instance (so the cache starts empty again), and the
// in-process loops that split an op into HTTP, router hop, batching
// window and inference.
func traceHTTP(hs httpSpec, rc *runCtx, ckpt string, pool *imagePool) (*report, error) {
	n := max(hs.ops(rc.seconds)/4, 4*hs.clients)
	plan := hs.plan(n, rc.seed)
	rc.prog.planned.Store(int64(2 * planOps(plan)))
	rep := newReport()
	out := rep.layer

	ref, want, err := reference(hs.serveSpec(rc.seed, ckpt), pool, plan, hs.canonical())
	if err != nil {
		return nil, err
	}
	defer drain(ref)

	// Untraced quarter.
	in, err := setupHTTP(hs, rc.seed, ckpt, pool, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range in.stages {
		out[k] = v
	}
	warmUp(in.url, pool, hs.clients)
	stU := beginPhase()
	opsU := runHTTP(in.url, pool, plan, nil, rc.prog)
	stU.finish()
	in.close()
	chkU := checkReplies(opsU, want, hs.fleet)
	runContext(out, chkU.sample, 1, stU)

	// Traced quarter.
	tr := newTracer(2 * planOps(plan))
	in, err = setupHTTP(hs, rc.seed, ckpt, pool, tr)
	if err != nil {
		return nil, err
	}
	defer in.close()
	warmUp(in.url, pool, hs.clients)
	before := readCounters()
	opsT := runHTTP(in.url, pool, plan, tr, rc.prog)
	delta := readCounters().since(before)
	chkT := checkReplies(opsT, want, hs.fleet)
	notes := append(chkU.notes, chkT.notes...)
	traceNotes, err := finishTrace(rc.outDir, hs.name, tr)
	if err != nil {
		return nil, err
	}
	notes = append(notes, traceNotes...)
	ops := planOps(plan)
	if u := stratified(chkU.sample.ms, chkU.sample.class, p10); u > 0 {
		out["run.trace_overhead_share"] = stratified(chkT.sample.ms, chkT.sample.class, p10)/u - 1
	}
	dispatchPerOp(out, delta, ops)
	out["serve.rejected_per_1k"] = delta["serve_rejected"] * 1000 / float64(ops)
	out["serve.expired_per_1k"] = delta["serve_expired"] * 1000 / float64(ops)
	out["serve.failed_per_1k"] = delta["serve_failed"] * 1000 / float64(ops)
	var queue, batch, attempts []float64
	hedged := 0
	for _, r := range chkT.replies {
		if r.Cached {
			continue // a hit never reached a batcher
		}
		batch = append(batch, float64(r.BatchSize))
		queue = append(queue, r.QueueMS)
		attempts = append(attempts, float64(r.Attempts))
		if r.Hedged {
			hedged++
		}
	}
	out["serve.batch_size_mean"] = mean(batch)
	httpP50 := p50(classOf(chkT.sample, classFresh))

	// In-process Batcher.Do with the same clients: window + inference.
	do := inProcess(pool, hs.clients, n/2, func(img []float32) error {
		return ref.Batcher().Do(context.Background(), img, time.Time{}).Err
	})
	out["serve.batcher_do_ms_p50"] = p50(do)

	if hs.fleet {
		out["fleet.hit_ms_p50"] = p50(classOf(chkT.sample, classRepeat))
		out["fleet.miss_ms_p50"] = httpP50
		if look := delta["fleet_hits"] + delta["fleet_misses"]; look > 0 {
			out["fleet.cache_hit_share"] = delta["fleet_hits"] / look
		}
		if got, planned := out["fleet.cache_hit_share"], plannedRepeatShare(plan); got != planned {
			notes = append(notes, fmt.Sprintf("cache hit share %v differs from the planned repeat share %v", got, planned))
		}
		out["fleet.frames_per_op"] = (delta["fleet_frames_sent"] + delta["fleet_frames_recv"]) / float64(ops)
		out["fleet.frame_bytes_per_op"] = (delta["fleet_bytes_sent"] + delta["fleet_bytes_recv"]) / float64(ops)
		out["fleet.hedged_per_1k"] = float64(hedged) * 1000 / float64(ops)
		out["fleet.attempts_mean"] = mean(attempts)
		out["fleet.cache_evictions"] = delta["fleet_evictions"]
		// In-process Router.Predict on images the cache has never seen.
		unseen := newImagePool(min(n/2, 400), rc.seed+1)
		rp := inProcess(unseen, hs.clients, len(unseen.images), func(img []float32) error {
			_, _, err := in.router.Predict(context.Background(), servedModel, img, 0)
			return err
		})
		out["fleet.router_predict_ms_p50"] = p50(rp)
		out["fleet.http_overhead_ms_p50"] = httpP50 - p50(rp)
		out["fleet.hop_overhead_ms_p50"] = p50(rp) - p50(do)
	} else {
		out["serve.queue_ms_p50"] = p50(queue)
		out["serve.http_overhead_ms_p50"] = httpP50 - p50(do)
	}

	// Direct inference, batch 1, layer by layer.
	if err := predictMetrics(out, hs, rc.seed, ckpt, pool); err != nil {
		return nil, err
	}

	rep.notes = notes
	rep.planned = 2 * ops
	rep.ok = chkU.ok + chkT.ok
	rep.info["trace_spans"] = fmt.Sprint(len(tr.recorded()))
	rep.info["planned_repeat_share"] = fmt.Sprintf("%.4f", plannedRepeatShare(plan))
	return rep, nil
}

func classOf(s opSample, class uint8) []float64 {
	var out []float64
	for i, v := range s.ms {
		if s.class[i] == class {
			out = append(out, v)
		}
	}
	return out
}

// inProcess runs fn over the pool in closed loop from the benchmark's
// clients, n calls in all, and returns the call times in ms.
func inProcess(pool *imagePool, clients, n int, fn func(img []float32) error) []float64 {
	per := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				t := time.Now()
				if err := fn(pool.images[i%len(pool.images)]); err != nil {
					return
				}
				per[c] = append(per[c], float64(time.Since(t))/1e6)
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// predictMetrics builds the served architecture directly and walks it
// in inference mode on single images: the nn share of a request.
func predictMetrics(out map[string]float64, hs httpSpec, seed int64, ckpt string, pool *imagePool) error {
	entry, ok := appmult.Lookup(multName)
	if !ok {
		return fmt.Errorf("multiplier %s missing from registry", multName)
	}
	t := time.Now()
	nn.STEOp(entry.Mult) // what serve.Load builds; timed alone here
	out["appmult.lut_build_ms"] = float64(time.Since(t)) / 1e6
	m, op, err := buildApproxModel(hs.kind, "ste", seed, stageTimes{})
	if err != nil {
		return err
	}
	if ckpt != "" {
		t := time.Now()
		if _, err := train.LoadCheckpoint(ckpt, m); err != nil {
			return err
		}
		out["train.ckpt_load_ms"] = float64(time.Since(t)) / 1e6
	}
	x := tensor.New(1, 3, scale.HW, scale.HW)
	const reps = 200
	// Call 0 is the warm-up: it calibrates observers and sizes arenas.
	spans, whole, _ := walkReps(reps, 48, func(tr *tracer, root, op int32) {
		copy(x.Data, pool.images[int(op)%len(pool.images)])
		(&layerWalk{tr: tr, parent: root, op: op}).forward(m, x, true)
	})
	out["nn.predict_ms_p50"] = p50(whole)
	layerMetrics(out, spans, reps)
	out["nn.forward_ms_p50"] = out["nn.predict_ms_p50"]
	kernelMetrics(out, op, m, x, false)
	return nil
}

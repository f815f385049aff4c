package main

import (
	"fmt"
	"io"
	"sort"
)

// This file is the single list of what the benchmark reports.
// BENCHMARK.json is printed from it (-manifest) and a test fails when
// the two drift apart.

// runSeconds is BENCHMARK.json's run_seconds: the length of one
// measured phase the per-workload op rates are calibrated for.
const runSeconds = 10

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median
	// Exact marks a per-layer count that must repeat exactly for the
	// same seed (see exactOn for the workloads it holds on).
	Exact bool
	// Doc is the README row: definition, and for per-layer metrics
	// which end-to-end metric it should move on which workload.
	Doc string
}

// endToEnd is the same seven metrics on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "fastest-quartile wall time of K from-scratch set-ups (tables + model + data/checkpoint + peers joined + first op answered)"},
	{Name: "op_ms_p10", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "10th percentile of op time; share-weighted mean of per-class p10s where the generator plans request classes"},
	{Name: "images_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "images x clients / mean op time of the fastest half of ops, class-stratified: interference-trimmed throughput"},
	{Name: "ok_share", Unit: "share", Better: "higher", Bound: 0.002,
		Doc: "ops that succeeded and verified / ops planned"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10,
		Doc: "child VmHWM at the end of the measured phase"},
	{Name: "allocs_per_op", Unit: "1", Better: "lower", Bound: 0.02,
		Doc: "MemStats.Mallocs delta / ops over the measured phase (program + pre-encoded generator)"},
	{Name: "alloc_kb_per_op", Unit: "kB", Better: "lower", Bound: 0.02,
		Doc: "MemStats.TotalAlloc delta / ops over the measured phase"},
}

// perLayer lists every per-layer metric. Every workload prints all of
// them with --trace 1; a layer a workload does not touch reads 0.
var perLayer = []metricDef{
	// Set-up stages, -> setup_s on the workloads that build them.
	{Name: "appmult.lut_build_ms", Unit: "ms", Better: "lower", Doc: "nn.NewOp: product LUT build -> setup_s, all workloads"},
	{Name: "gradient.tables_ms", Unit: "ms", Better: "lower", Doc: "GradEstimator.Tables -> setup_s on 1 and 3 (smoothdiff); ~0 for ste on 2"},
	{Name: "models.build_ms", Unit: "ms", Better: "lower", Doc: "models.ByKind -> setup_s, train workloads"},
	{Name: "data.synthetic_ms", Unit: "ms", Better: "lower", Doc: "data.Synthetic 960/240 -> setup_s, train workloads"},
	{Name: "train.shard_clone_ms", Unit: "ms", Better: "lower", Doc: "train.NewShardedStep (replica clone + BN groups) -> setup_s on 2"},
	{Name: "train.ckpt_load_ms", Unit: "ms", Better: "lower", Doc: "train.LoadCheckpoint of the TRCKPv1 file -> setup_s on 4"},
	{Name: "serve.load_ms", Unit: "ms", Better: "lower", Doc: "serve.Load (model + checkpoint + replica warm-up) -> setup_s on 4; per worker on 5"},
	{Name: "dist.join_ms", Unit: "ms", Better: "lower", Doc: "NewCoordinator + two RunWorker joined (AwaitWorkers) -> setup_s on 3"},
	{Name: "fleet.join_ms", Unit: "ms", Better: "lower", Doc: "NewRouter + two workers registered (AwaitWorkers) -> setup_s on 5"},

	// Gaps around the op: outside op_ms_p10, inside wall throughput.
	{Name: "data.next_ms_p50", Unit: "ms", Better: "lower", Doc: "gap Broadcast exit -> next Step entry inside an epoch -> run.images_per_s_wall only"},
	{Name: "train.eval_ms_p50", Unit: "ms", Better: "lower", Doc: "the same gap at epoch boundaries (Evaluate on 240 images) -> run.images_per_s_wall only"},

	// nn, from the bench-driven per-layer loop.
	{Name: "nn.forward_ms_p50", Unit: "ms", Better: "lower", Doc: "forward pass of one op -> op_ms_p10, images_per_s on 1-3"},
	{Name: "nn.loss_ms_p50", Unit: "ms", Better: "lower", Doc: "nn.SoftmaxCrossEntropy -> op_ms_p10 on 1-3 (small)"},
	{Name: "nn.backward_ms_p50", Unit: "ms", Better: "lower", Doc: "backward pass of one op -> op_ms_p10, images_per_s on 1-3"},
	{Name: "nn.approxconv.fwd_ms", Unit: "ms", Better: "lower", Doc: "self time per op in ApproxConv2D forward/Infer -> op_ms_p10 on 1-3; fresh class on 5"},
	{Name: "nn.approxconv.bwd_ms", Unit: "ms", Better: "lower", Doc: "self time per op in ApproxConv2D backward -> op_ms_p10 on 1 (fused), 2 (affine), 3 (small)"},
	{Name: "nn.batchnorm.fwd_ms", Unit: "ms", Better: "lower", Doc: "BatchNorm2D forward self time per op -> op_ms_p10 on 1, 2"},
	{Name: "nn.batchnorm.bwd_ms", Unit: "ms", Better: "lower", Doc: "BatchNorm2D backward self time per op -> op_ms_p10 on 1, 2"},
	{Name: "nn.linear.fwd_ms", Unit: "ms", Better: "lower", Doc: "classifier-head Linear forward self time per op (heads stay float, so no ApproxLinear runs) -> op_ms_p10 on 3, 4"},
	{Name: "nn.linear.bwd_ms", Unit: "ms", Better: "lower", Doc: "Linear backward self time per op -> op_ms_p10 on 3"},
	{Name: "nn.other.fwd_ms", Unit: "ms", Better: "lower", Doc: "ReLU/pool/flatten/residual-add forward self time per op -> op_ms_p10 on 1-3"},
	{Name: "nn.other.bwd_ms", Unit: "ms", Better: "lower", Doc: "the same, backward"},
	{Name: "nn.layers_cover_share", Unit: "share", Better: "higher", Doc: "sum of layer self time / step span: how much of the step the layer spans explain"},
	{Name: "nn.kernel.fwd_gemm_ms", Unit: "ms", Better: "lower", Doc: "Op.ForwardGEMM at the workload's largest conv shape -> nn.approxconv.fwd_ms"},
	{Name: "nn.kernel.bwd_gemm_ms", Unit: "ms", Better: "lower", Doc: "Op.BackwardGEMM at the same shape -> nn.approxconv.bwd_ms; 0 on 4, 5"},
	{Name: "nn.dispatch.fwd_arith_per_op", Unit: "count", Better: "higher", Exact: true, Doc: "forward GEMMs on the arith tier per op"},
	{Name: "nn.dispatch.bwd_fused_per_op", Unit: "count", Better: "higher", Exact: true, Doc: "backward GEMMs on the fused gather tier per op: > 0 on 1 only"},
	{Name: "nn.dispatch.bwd_affine_per_op", Unit: "count", Better: "higher", Exact: true, Doc: "backward GEMMs on the affine tier per op: > 0 on 2 only"},
	{Name: "nn.dispatch.bwd_small_per_op", Unit: "count", Better: "higher", Exact: true, Doc: "backward GEMMs on the small tier per op: > 0 on 3 only"},
	{Name: "nn.dispatch.other_per_op", Unit: "count", Better: "lower", Exact: true, Doc: "GEMMs on any other tier per op (packed16/blocked/behavioral/ref/mixed): only the under-32-row GEMMs of evaluation tails and single-image inference (packed16)"},
	{Name: "nn.float_step_ms_p10", Unit: "ms", Better: "lower", Doc: "same model built with models.FloatConv, bench-driven step"},
	{Name: "train.approx_over_float", Unit: "ratio", Better: "lower", Doc: "approximate / float single-replica step p10 (ApproxTrain's ratio) -> how far LUT simulation is from free"},

	// train / optim.
	{Name: "train.step_ms_p50", Unit: "ms", Better: "lower", Doc: "Stepper.Step entry -> exit -> op_ms_p10 on 1-3"},
	{Name: "train.broadcast_ms_p50", Unit: "ms", Better: "lower", Doc: "Stepper.Broadcast -> op_ms_p10 on 2, 3"},
	{Name: "train.shard_speedup", Unit: "ratio", Better: "higher", Doc: "bench-driven single-replica step p10 / this workload's step p10 -> op_ms_p10 on 2"},
	{Name: "optim.step_ms_p50", Unit: "ms", Better: "lower", Doc: "gap Step exit -> Broadcast entry (gradsFinite + Adam) -> op_ms_p10 on 3 most, 1 least"},
	{Name: "train.final_loss", Unit: "loss", Better: "lower", Exact: true, Doc: "last-epoch mean loss of the traced phase (exact for a seed)"},

	// tensor pool.
	{Name: "tensor.pool_jobs_per_op", Unit: "count", Better: "lower", Exact: true, Doc: "tensor_pool_jobs_total (pooled + inline) per op -> op_ms_p10 on 2, 3 where jobs are small"},
	{Name: "tensor.pool_blocks_per_op", Unit: "count", Better: "lower", Exact: true, Doc: "tensor_pool_blocks_total per op"},
	{Name: "tensor.pool_job_ms_p50", Unit: "ms", Better: "lower", Doc: "tensor_pool_job_ms histogram median over the traced phase"},

	// dist.
	{Name: "dist.step_ms_p50", Unit: "ms", Better: "lower", Doc: "Coordinator.Step -> op_ms_p10 on 3"},
	{Name: "dist.overhead_ms_p50", Unit: "ms", Better: "lower", Doc: "dist step p50 - in-process ShardedStep(2) step p50 on the same model -> op_ms_p10 on 3"},
	{Name: "dist.frames_per_op", Unit: "count", Better: "lower", Doc: "DSTFRv1 frames sent + received per op, heartbeats included (approx) -> allocs_per_op on 3"},
	{Name: "dist.frame_bytes_per_op", Unit: "B", Better: "lower", Doc: "frame bytes sent + received per op (approx) -> alloc_kb_per_op on 3"},
	{Name: "dist.step_retries", Unit: "count", Better: "lower", Exact: true, Doc: "dist_step_retries_total over the traced phase: 0"},
	{Name: "dist.slice_reassignments", Unit: "count", Better: "lower", Exact: true, Doc: "dist_slice_reassignments_total over the traced phase: 0"},

	// serve.
	{Name: "nn.predict_ms_p50", Unit: "ms", Better: "lower", Doc: "direct Sequential.Predict, batch 1 -> op_ms_p10 on 4; fresh class on 5"},
	{Name: "serve.batcher_do_ms_p50", Unit: "ms", Better: "lower", Doc: "in-process Batcher.Do with the same clients (window + inference) -> op_ms_p10 on 4, 5"},
	{Name: "serve.http_overhead_ms_p50", Unit: "ms", Better: "lower", Doc: "HTTP p50 - Batcher.Do p50: net/http + JSON -> op_ms_p10, allocs_per_op, alloc_kb_per_op on 4"},
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: "lower", Doc: "queue_ms response field (wait for a replica, window included) -> op_ms_p10 on 4"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher", Doc: "batch_size response field mean -> images_per_s on 4, 5"},
	{Name: "serve.rejected_per_1k", Unit: "count", Better: "lower", Exact: true, Doc: "serve_requests_total{rejected} per 1000 ops: 0"},
	{Name: "serve.expired_per_1k", Unit: "count", Better: "lower", Exact: true, Doc: "serve_requests_total{expired} per 1000 ops: 0"},
	{Name: "serve.failed_per_1k", Unit: "count", Better: "lower", Exact: true, Doc: "serve_requests_total{failed} per 1000 ops: 0"},

	// fleet.
	{Name: "fleet.hit_ms_p50", Unit: "ms", Better: "lower", Doc: "round trip of the repeat class -> op_ms_p10, images_per_s on 5 (repeat class)"},
	{Name: "fleet.miss_ms_p50", Unit: "ms", Better: "lower", Doc: "round trip of the fresh class -> op_ms_p10, images_per_s on 5 (fresh class)"},
	{Name: "fleet.router_predict_ms_p50", Unit: "ms", Better: "lower", Doc: "in-process Router.Predict, fresh images, same clients"},
	{Name: "fleet.http_overhead_ms_p50", Unit: "ms", Better: "lower", Doc: "fresh-class HTTP p50 - Router.Predict p50 -> both classes on 5"},
	{Name: "fleet.hop_overhead_ms_p50", Unit: "ms", Better: "lower", Doc: "Router.Predict p50 - Batcher.Do p50: canonicalize + FLTFRv1 hop -> fresh class on 5"},
	{Name: "fleet.cache_hit_share", Unit: "share", Better: "higher", Exact: true, Doc: "fleet_cache_hits_total / lookups; must equal the generator's planned share"},
	{Name: "fleet.frames_per_op", Unit: "count", Better: "lower", Doc: "FLTFRv1 frames sent + received per op, heartbeats included (approx)"},
	{Name: "fleet.frame_bytes_per_op", Unit: "B", Better: "lower", Doc: "frame bytes per op (approx) -> alloc_kb_per_op on 5"},
	{Name: "fleet.hedged_per_1k", Unit: "count", Better: "lower", Doc: "responses with hedged=true per 1000 ops (time-driven)"},
	{Name: "fleet.attempts_mean", Unit: "count", Better: "lower", Doc: "attempts response field mean over the fresh class"},
	{Name: "fleet.cache_evictions", Unit: "count", Better: "lower", Exact: true, Doc: "fleet_cache_evictions_total over the traced phase"},

	// run.*: what users ultimately feel, not repeatable on this host.
	{Name: "run.op_ms_p50", Unit: "ms", Better: "lower", Doc: "median op time, untraced"},
	{Name: "run.op_ms_p90", Unit: "ms", Better: "lower", Doc: "90th percentile op time, untraced"},
	{Name: "run.op_ms_p99", Unit: "ms", Better: "lower", Doc: "99th percentile, only where >= 10 samples lie beyond it (else 0)"},
	{Name: "run.images_per_s_wall", Unit: "1/s", Better: "higher", Doc: "images / wall time of the untraced phase, gaps and evaluation included"},
	{Name: "run.cpu_ms_per_op", Unit: "ms", Better: "lower", Doc: "process CPU time (user+sys) / ops"},
	{Name: "run.cpu_util", Unit: "cores", Better: "higher", Doc: "process CPU time / wall time"},
	{Name: "run.gc_cycles", Unit: "count", Better: "lower", Doc: "MemStats.NumGC delta"},
	{Name: "run.gc_pause_ms", Unit: "ms", Better: "lower", Doc: "MemStats.PauseTotalNs delta"},
	{Name: "run.heap_inuse_mb", Unit: "MB", Better: "lower", Doc: "MemStats.HeapInuse after the phase"},
	{Name: "run.maxprocs", Unit: "count", Better: "higher", Doc: "runtime.GOMAXPROCS(0), never set by the benchmark"},
	{Name: "run.trace_overhead_share", Unit: "share", Better: "lower", Doc: "traced / untraced op_ms_p10 - 1"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object the driver reads from the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill returns a metric map holding exactly defs' names: measured
// values where present, 0 elsewhere, so a crashed or partial run still
// prints every name.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// unknownNames lists keys of vals no definition covers (a bug in a
// workload: it would otherwise be silently dropped).
func unknownNames(defs []metricDef, vals map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func printMetrics(w io.Writer, workload string, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %-34s %14.6g %s\n", workload, d.Name, m[d.Name].Value, d.Unit)
	}
}

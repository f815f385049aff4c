package tensor

import "github.com/appmult/retrain/internal/obs"

// Worker-pool telemetry (see DESIGN.md "Observability"). Handles are
// resolved once at package init so the pool's hot path pays exactly
// one atomic update per counter touch and two time.Now calls per
// pooled job — the jobs themselves run for microseconds to
// milliseconds, so this stays far under the 1% kernel-overhead budget
// make bench enforces.
var (
	poolJobsPooled = obs.Default().Counter("tensor_pool_jobs_total",
		"Parallel jobs by scheduling mode: pooled jobs fan out over the worker pool, inline jobs run on the caller.",
		"mode", "pooled")
	poolJobsInline = obs.Default().Counter("tensor_pool_jobs_total",
		"Parallel jobs by scheduling mode: pooled jobs fan out over the worker pool, inline jobs run on the caller.",
		"mode", "inline")
	poolBlocksSubmitter = obs.Default().Counter("tensor_pool_blocks_total",
		"Work blocks executed across all pooled jobs, by who ran them: the submitting goroutine or a pool worker.",
		"who", "submitter")
	poolBlocksWorker = obs.Default().Counter("tensor_pool_blocks_total",
		"Work blocks executed across all pooled jobs, by who ran them: the submitting goroutine or a pool worker.",
		"who", "worker")
	poolJobMs = obs.Default().Histogram("tensor_pool_job_ms",
		"Wall time of one pooled job from submission until every block completed (scheduling wait plus compute).",
		obs.LatencyBucketsMs)
)

// registerPoolGauges exports the pool's static shape; called once when
// the default pool starts.
func registerPoolGauges(workers int) {
	obs.Default().Gauge("tensor_pool_workers",
		"Workers in the persistent pool (including the submitting goroutine).").Set(float64(workers))
}

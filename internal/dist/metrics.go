package dist

import "github.com/appmult/retrain/internal/obs"

// Distributed-training telemetry (see DESIGN.md "Observability"). The
// robustness claims of the coordinator/worker split are only auditable
// if every failure-handling transition is counted: worker churn, runs
// lost with their worker, and step retries. The connection-level half — frame
// traffic, the per-reason frame-error breakdown that tells protocol
// corruption apart from plain connection loss, worker deaths and
// heartbeat expiries, dial retries — is proto.Metrics, registered by
// internal/wire under the same dist_ prefix.
var (
	workersLive = obs.Default().Gauge("dist_workers_live",
		"Workers currently admitted to the coordinator's step scheduling.")
	workersJoined = obs.Default().Counter("dist_workers_joined_total",
		"Workers admitted by the coordinator (reconnects count again).")
	sliceReassignments = obs.Default().Counter("dist_slice_reassignments_total",
		"Slices of runs lost with their worker, recomputed by the step's retry.")
	stepRetries = obs.Default().Counter("dist_step_retries_total",
		"Step attempts retried (a worker holding a run died, or a run aborted).")
	stepsTotal = obs.Default().Counter("dist_steps_total",
		"Distributed training steps completed by the coordinator.")
	stateSyncs = obs.Default().Counter("dist_state_syncs_total",
		"Full model state transfers to workers (admission, resume, rollback).")
	stepGatherMs = obs.Default().Histogram("dist_step_gather_ms",
		"Latency of one distributed step: slice dispatch through last result.",
		obs.LatencyBucketsMs)
	bnReduceMs = obs.Default().Histogram("dist_bn_reduce_ms",
		"Coordinator-side latency of one sync-BN barrier reduction (includes waiting for the other runs).",
		obs.LatencyBucketsMs)

	frameSizeBytes = obs.Default().Histogram("dist_frame_size_bytes",
		"Size distribution of sent protocol frames.",
		obs.ByteBuckets)

	workerSlices = obs.Default().Counter("dist_worker_slices_total",
		"Gradient slices computed by this worker process.")
)

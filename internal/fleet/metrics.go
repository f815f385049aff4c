package fleet

import "github.com/appmult/retrain/internal/obs"

// Fleet-tier telemetry (see DESIGN.md "Observability"). The serving
// tier's headline claims — zero lost requests across a worker kill,
// hedging that trims the tail, a cache that actually hits — are only
// auditable if every routing decision is counted: per-outcome request
// totals, hedge launches and wins, failover re-dispatches, cache
// traffic, and worker churn. The connection-level half — frame traffic
// and errors, worker deaths and heartbeat expiries, dial retries — is
// proto.Metrics, registered by internal/wire under the same fleet_
// prefix.
var (
	workersLive = obs.Default().Gauge("fleet_workers_live",
		"Workers currently registered with the router.")
	workersJoined = obs.Default().Counter("fleet_workers_joined_total",
		"Workers admitted by the router (reconnects count again).")

	hedges = obs.Default().Counter("fleet_hedges_total",
		"Hedge dispatches: a second worker was engaged after the hedge deadline.")
	hedgeWins = obs.Default().Counter("fleet_hedge_wins_total",
		"Hedged requests answered first by the hedge replica.")
	failovers = obs.Default().Counter("fleet_failover_total",
		"In-flight requests re-dispatched to a surviving replica after their worker died.")
	duplicateResults = obs.Default().Counter("fleet_duplicate_results_total",
		"Late results discarded because another attempt already answered the request.")

	cacheHits = obs.Default().Counter("fleet_cache_hits_total",
		"Predictions answered from the response cache.")
	cacheMisses = obs.Default().Counter("fleet_cache_misses_total",
		"Predictions that had to be computed by a worker.")
	cacheEvictions = obs.Default().Counter("fleet_cache_evictions_total",
		"Response-cache entries evicted to hold the byte budget.")
	cacheBytes = obs.Default().Gauge("fleet_cache_bytes",
		"Accounted size of the response cache contents.")
	cacheEntries = obs.Default().Gauge("fleet_cache_entries",
		"Entries currently in the response cache.")
	cacheCapacityBytes = obs.Default().Gauge("fleet_cache_capacity_bytes",
		"Response-cache byte budget.")

	routerLatencyMs = obs.Default().Histogram("fleet_request_latency_ms",
		"Router-side end-to-end latency of completed predictions (cache hits included).",
		obs.LatencyBucketsMs)
	routerInflight = obs.Default().Gauge("fleet_inflight",
		"Predictions currently admitted and awaiting a worker answer.")

	workerPredicts = obs.Default().Counter("fleet_worker_predicts_total",
		"Predict frames served by this worker process.")
)

// requests counts routed predictions by final outcome; each outcome is
// a distinct labeled series registered on first use.
func requests(outcome string) *obs.Counter {
	return obs.Default().Counter("fleet_requests_total",
		"Routed predictions by final outcome (completed, cached, rejected, expired, failed, no_worker).",
		"outcome", outcome)
}

// autoscaleEvents counts worker-local replica scaling decisions by
// model and direction.
func autoscaleEvents(model, dir string) *obs.Counter {
	return obs.Default().Counter("fleet_autoscale_total",
		"Worker-local replica scaling events, by model and direction (up, down).",
		"model", model, "dir", dir)
}

package fleet

import (
	"context"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/serve"
)

const (
	// autoscaleInterval is the decision cadence.
	autoscaleInterval = 250 * time.Millisecond
	// scaleUpQueueFrac scales up when queue depth reaches this fraction
	// of queue capacity. The ceiling is the batcher pool's runner cap.
	scaleUpQueueFrac = 0.5
	// scaleDownIdleTicks scales down after this many consecutive ticks
	// with an empty queue and every replica idle. The floor of one
	// replica is the batcher's.
	scaleDownIdleTicks = 8
)

// scaleDecision is the pure decision rule, split out so tests can
// drive it with synthetic observations. It returns +1 (add a replica),
// -1 (retire one), or 0, given the observed queue depth and capacity,
// the live and idle replica counts, and how many consecutive ticks the
// model has been fully idle.
func scaleDecision(depth, capacity, live, idle, idleTicks int) int {
	if capacity > 0 && float64(depth) >= scaleUpQueueFrac*float64(capacity) {
		return 1
	}
	if depth == 0 && idle >= live && live > 1 && idleTicks >= scaleDownIdleTicks {
		return -1
	}
	return 0
}

// runAutoscaler is the worker-local per-model replica autoscaler
// (WorkerConfig.Autoscale). It drives one model's replica count until
// ctx is cancelled: every interval it reads the queue's high-water
// depth since the last tick (Batcher.QueuePeak) and the model's
// serve_queue_capacity, serve_replicas_idle, and serve_replicas_live
// gauges from the default obs registry — the same series /metrics
// scrapes — and applies scaleDecision. Pressure is the high-water
// depth, not the serve_queue_depth gauge: that is an instant, and a
// replica that has just come free has always just emptied the queue.
func runAutoscaler(ctx context.Context, m *serve.Model, interval time.Duration, logf func(string, ...any)) {
	name := m.Spec().Name
	reg := obs.Default()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	idleTicks := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		depth := m.Batcher().QueuePeak()
		capacity, _ := reg.ReadValue("serve_queue_capacity", "model", name)
		idle, _ := reg.ReadValue("serve_replicas_idle", "model", name)
		live, _ := reg.ReadValue("serve_replicas_live", "model", name)
		if depth == 0 && idle >= live {
			idleTicks++
		} else {
			idleTicks = 0
		}
		switch scaleDecision(depth, int(capacity), int(live), int(idle), idleTicks) {
		case 1:
			if err := m.AddReplica(); err == nil {
				autoscaleEvents(name, "up").Inc()
				if logf != nil {
					logf("autoscale %s: +1 replica (queue %d/%d) -> %d", name, depth, int(capacity), m.Replicas())
				}
			}
		case -1:
			if m.RemoveReplica() {
				autoscaleEvents(name, "down").Inc()
				idleTicks = 0
				if logf != nil {
					logf("autoscale %s: -1 replica (idle) -> %d", name, m.Replicas())
				}
			}
		}
	}
}

package nn

import (
	"sync/atomic"
	"unsafe"

	"github.com/appmult/retrain/internal/obs"
)

// Kernel telemetry (see DESIGN.md "Observability"): which dispatch
// path each approximate-GEMM call takes, and how many bytes the
// KernelScratch arenas (plus the forward tiles) currently hold.
// One atomic update per GEMM call keeps the overhead invisible next to
// the kernels' microsecond-to-millisecond runtimes.

// dispatchCounter is the nn_kernel_dispatch_total series of one
// dispatch path: every row of the ladders in tiers.go owns one, and the
// reference kernels report under "ref".
func dispatchCounter(kernel, path string) *obs.Counter {
	return obs.Default().Counter("nn_kernel_dispatch_total",
		"Approximate-GEMM kernel invocations by dispatch path.",
		"kernel", kernel, "path", path)
}

var (
	kernelForwardRef  = dispatchCounter("forward", "ref")
	kernelBackwardRef = dispatchCounter("backward", "ref")
)

// weightPrepCounter is the nn_weight_prep_total series of one outcome of
// an approximate layer's weight-version check (weightSide.sync): "miss"
// rebuilds the weight-side GEMM state, "hit" reuses it.
func weightPrepCounter(result string) *obs.Counter {
	return obs.Default().Counter("nn_weight_prep_total",
		"Weight-side GEMM state lookups of the approximate layers, by outcome.",
		"result", result)
}

var (
	weightPrepHit  = weightPrepCounter("hit")
	weightPrepMiss = weightPrepCounter("miss")
)

// noteEstimatorOp counts one EstimatorOp construction per estimator
// family. The label value is runtime data (the estimator registry
// key), so the counter is resolved through the registry's get-or-create
// path instead of a package-level var per value.
func noteEstimatorOp(estimator string) {
	obs.Default().Counter("nn_estimator_ops_total",
		"Approximate operators built via the GradEstimator seam, by estimator.",
		"estimator", estimator).Inc()
}

// scratchBytes tracks the bytes currently held by every buffer sized
// through grow — the KernelScratch arenas and the forward tiles. grow
// adds the delta when it reallocates, so the gauge follows the
// high-water footprint the kernels actually retain.
var scratchBytes atomic.Int64

func init() {
	obs.Default().GaugeFunc("nn_kernel_scratch_bytes",
		"Bytes currently held by kernel scratch arenas (KernelScratch and forward tiles).",
		func() float64 { return float64(scratchBytes.Load()) })
}

// noteGrow records a reallocation of a grow-managed buffer from
// oldCap to newLen elements of elemSize bytes.
func noteGrow(oldCap, newLen int, elemSize uintptr) {
	scratchBytes.Add(int64(elemSize) * int64(newLen-oldCap))
}

// elemSize reports sizeof(T) for grow's bookkeeping.
func elemSize[T any]() uintptr {
	var z T
	return unsafe.Sizeof(z)
}

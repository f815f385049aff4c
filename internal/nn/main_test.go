package nn

import (
	"os"
	"runtime"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

// TestMain gives the shared worker pool a worker besides the caller
// before any test builds it (it is sized from GOMAXPROCS on first
// use), so the pooled dispatch path — recycled job headers, kernels
// running concurrently — is what these tests and the -race pass
// exercise even on a one-core host.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	tensor.ParallelRows(1, func(lo, hi int) {})
	os.Exit(m.Run())
}

//go:build race

package train_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds bookkeeping allocations that invalidate exact
// alloc-count assertions.
const raceEnabled = true

//go:build !race

package tensor

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

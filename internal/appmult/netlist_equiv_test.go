package appmult

import (
	"testing"

	"github.com/appmult/retrain/internal/bitutil"
)

// TestRegistryNetlistsMatchBehavior is the hardware/behaviour
// equivalence check over the whole registry: every synthesizable
// multiplier's gate-level netlist must compute exactly its behavioural
// function on all operand pairs. This ties the Table I hardware
// numbers to the LUTs the retraining framework actually trains with.
func TestRegistryNetlistsMatchBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive netlist equivalence over the registry")
	}
	for _, e := range Registry() {
		s, ok := e.Mult.(Synthesizable)
		if !ok {
			continue // DRUM stand-in has no netlist
		}
		bits := e.Mult.Bits()
		n := s.Netlist()
		nv := uint32(bitutil.NumInputs(bits))
		for w := uint32(0); w < nv; w++ {
			for x := uint32(0); x < nv; x++ {
				want := e.Mult.Mul(w, x)
				got := uint32(n.EvaluateUint2(uint64(w), bits, uint64(x)))
				if got != want {
					t.Fatalf("%s: netlist(%d,%d) = %d, behaviour %d", e.Mult.Name(), w, x, got, want)
				}
			}
		}
	}
}

// TestRegistryDistinctFunctions guards against calibration regressions
// where two different Table I names silently share one function.
func TestRegistryDistinctFunctions(t *testing.T) {
	type key struct {
		bits int
		sig  uint64
	}
	seen := map[key]string{}
	for _, e := range Registry() {
		bits := e.Mult.Bits()
		// FNV-style signature over the full LUT.
		var sig uint64 = 1469598103934665603
		nv := uint32(bitutil.NumInputs(bits))
		for w := uint32(0); w < nv; w++ {
			for x := uint32(0); x < nv; x++ {
				sig ^= uint64(e.Mult.Mul(w, x))
				sig *= 1099511628211
			}
		}
		k := key{bits, sig}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share an identical function", prev, e.Mult.Name())
		}
		seen[k] = e.Mult.Name()
	}
}

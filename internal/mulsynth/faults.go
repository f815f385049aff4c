package mulsynth

import (
	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/circuit"
)

// FaultImpact ranks every silicon gate of a multiplier netlist by the
// NMED (in percent) that a stuck-at fault at its output would cause,
// assessed over a deterministic operand sample. This is the classic
// testability/criticality view of an approximate circuit: gates whose
// faults are cheap are exactly the gates approximate synthesis removes
// first, and the ALS pass's scoring is the budgeted version of this
// analysis.
type FaultImpact struct {
	// Gate is the faulted node.
	Gate circuit.Node
	// StuckAt is the injected constant (0 or 1) with the smaller NMED.
	StuckAt uint8
	// NMEDPercent is the sampled NMED under that fault.
	NMEDPercent float64
}

// FaultSensitivity computes FaultImpact for every gate, ordered as in
// the netlist. samples uniform random operand pairs (seeded); bits is
// the operand width of the W-then-X input convention.
func FaultSensitivity(n *circuit.Netlist, bits, samples int, seed int64) []FaultImpact {
	if samples <= 0 {
		samples = 1024
	}
	ws, xs := sampleOperands(bits, samples, seed)
	norm := float64(int64(1)<<uint(2*bits) - 1)

	nmedOf := func(nl *circuit.Netlist) float64 {
		var sum float64
		for i := range ws {
			y := int64(nl.EvaluateUint2(uint64(ws[i]), bits, uint64(xs[i])))
			sum += float64(bitutil.AbsDiff(y, int64(ws[i])*int64(xs[i])))
		}
		return sum / float64(len(ws)) / norm * 100
	}

	var out []FaultImpact
	for v := 0; v < n.NumGates(); v++ {
		node := circuit.Node(v)
		if !isSiliconGate(n, node) {
			continue
		}
		best := FaultImpact{Gate: node, NMEDPercent: -1}
		for _, sa := range []uint8{0, 1} {
			trial := n.Clone()
			trial.ReplaceWithConst(node, sa)
			nm := nmedOf(trial)
			if best.NMEDPercent < 0 || nm < best.NMEDPercent {
				best.StuckAt = sa
				best.NMEDPercent = nm
			}
		}
		out = append(out, best)
	}
	return out
}

func isSiliconGate(n *circuit.Netlist, v circuit.Node) bool {
	k := n.Kind(v)
	return k.NumInputs() > 0
}

func sampleOperands(bits, samples int, seed int64) (ws, xs []uint32) {
	nv := uint32(bitutil.NumInputs(bits))
	// Simple deterministic LCG so this file stays independent of
	// math/rand's generator evolution.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 33)
	}
	ws = make([]uint32, samples)
	xs = make([]uint32, samples)
	for i := range ws {
		ws[i] = next() % nv
		xs[i] = next() % nv
	}
	return ws, xs
}

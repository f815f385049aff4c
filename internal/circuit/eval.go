package circuit

import (
	"fmt"

	"github.com/appmult/retrain/internal/tech"
)

// Evaluate computes the primary output bits for the given input bits.
// inputs[i] drives the i-th declared primary input and must be 0 or 1.
// The returned slice holds one bit per primary output.
//
// Evaluation walks gates in creation order, which is a topological
// order by construction.
func (n *Netlist) Evaluate(inputs []uint8) []uint8 {
	vals := make([]uint8, len(n.gates))
	n.evaluateInto(vals, inputs)
	out := make([]uint8, len(n.outputs))
	for i, o := range n.outputs {
		out[i] = vals[o]
	}
	return out
}

// evaluateInto fills vals (len == NumGates) with every node's value.
func (n *Netlist) evaluateInto(vals []uint8, inputs []uint8) {
	if len(inputs) != len(n.inputs) {
		panic(fmt.Sprintf("circuit: %s: got %d input bits, want %d", n.name, len(inputs), len(n.inputs)))
	}
	for i, in := range n.inputs {
		if inputs[i] > 1 {
			panic("circuit: input bits must be 0 or 1")
		}
		vals[in] = inputs[i]
	}
	for v := range n.gates {
		g := &n.gates[v]
		switch g.kind {
		case tech.CellInput:
			// already set
		case tech.CellConst:
			vals[v] = g.constVal
		case tech.CellBuf:
			vals[v] = vals[g.in[0]]
		case tech.CellNot:
			vals[v] = 1 - vals[g.in[0]]
		case tech.CellAnd2:
			vals[v] = vals[g.in[0]] & vals[g.in[1]]
		case tech.CellOr2:
			vals[v] = vals[g.in[0]] | vals[g.in[1]]
		case tech.CellNand2:
			vals[v] = 1 - vals[g.in[0]]&vals[g.in[1]]
		case tech.CellNor2:
			vals[v] = 1 - (vals[g.in[0]] | vals[g.in[1]])
		case tech.CellXor2:
			vals[v] = vals[g.in[0]] ^ vals[g.in[1]]
		case tech.CellXnor2:
			vals[v] = 1 - vals[g.in[0]] ^ vals[g.in[1]]
		case tech.CellAnd3:
			vals[v] = vals[g.in[0]] & vals[g.in[1]] & vals[g.in[2]]
		case tech.CellOr3:
			vals[v] = vals[g.in[0]] | vals[g.in[1]] | vals[g.in[2]]
		case tech.CellMaj3:
			a, b, c := vals[g.in[0]], vals[g.in[1]], vals[g.in[2]]
			if a+b+c >= 2 {
				vals[v] = 1
			} else {
				vals[v] = 0
			}
		default:
			panic(fmt.Sprintf("circuit: unhandled cell kind %v", g.kind))
		}
	}
}

// EvaluateUint2 drives the first aBits inputs with operand a (LSB
// first) and the remaining inputs with operand b, returning the packed
// output word. Multiplier netlists built by package mulsynth declare
// inputs in exactly this order.
func (n *Netlist) EvaluateUint2(a uint64, aBits int, b uint64) uint64 {
	if aBits < 0 || aBits > len(n.inputs) {
		panic("circuit: EvaluateUint2: aBits out of range")
	}
	bits := make([]uint8, len(n.inputs))
	for i := 0; i < aBits; i++ {
		bits[i] = uint8((a >> uint(i)) & 1)
	}
	for i := aBits; i < len(bits); i++ {
		bits[i] = uint8((b >> uint(i-aBits)) & 1)
	}
	return packBits(n.Evaluate(bits))
}

// EvaluateAllInto evaluates the netlist with two packed operands (as in
// EvaluateUint2) and fills vals with every node's value. vals must have
// length NumGates. The ALS pass uses this to collect signal
// probabilities without re-allocating per vector.
func (n *Netlist) EvaluateAllInto(vals []uint8, a uint64, aBits int, b uint64) {
	if len(vals) != len(n.gates) {
		panic("circuit: EvaluateAllInto: vals length mismatch")
	}
	if aBits < 0 || aBits > len(n.inputs) {
		panic("circuit: EvaluateAllInto: aBits out of range")
	}
	inbits := make([]uint8, len(n.inputs))
	for i := 0; i < aBits; i++ {
		inbits[i] = uint8((a >> uint(i)) & 1)
	}
	for i := aBits; i < len(inbits); i++ {
		inbits[i] = uint8((b >> uint(i-aBits)) & 1)
	}
	n.evaluateInto(vals, inbits)
}

func packBits(bits []uint8) uint64 {
	var v uint64
	for i, b := range bits {
		v |= uint64(b) << uint(i)
	}
	return v
}

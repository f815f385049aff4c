// Package circuit implements a small gate-level combinational netlist
// substrate: construction, topological evaluation, static critical-path
// timing, and Monte-Carlo switching-activity power estimation against a
// technology library from package tech.
//
// The multiplier netlists characterized in Table I are built on top of
// this package by package mulsynth. The substrate replaces the paper's
// Synopsys Design Compiler + ASAP7 flow (see DESIGN.md for the
// substitution rationale).
package circuit

import (
	"fmt"

	"github.com/appmult/retrain/internal/tech"
)

// Node identifies a gate output inside a netlist. Nodes are dense
// indices assigned in creation order, which is also a valid topological
// order because gates may only reference previously created nodes.
type Node int

// Invalid is the zero-value-adjacent sentinel for "no node".
const Invalid Node = -1

// gate is one netlist element: a cell kind plus its fan-in nodes.
type gate struct {
	kind tech.CellKind
	in   [3]Node
	nin  int
	// constVal holds the value of a CONST gate (0 or 1).
	constVal uint8
	name     string
}

// Netlist is a directed acyclic gate network with named primary inputs
// and an ordered list of primary outputs. The zero value is not usable;
// create netlists with New.
type Netlist struct {
	name    string
	gates   []gate
	inputs  []Node
	outputs []Node
}

// New returns an empty netlist with the given display name.
func New(name string) *Netlist {
	return &Netlist{name: name}
}

// NumGates returns the total node count, including inputs and constants.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumInputs returns the number of primary inputs.
func (n *Netlist) NumInputs() int { return len(n.inputs) }

// NumOutputs returns the number of primary outputs.
func (n *Netlist) NumOutputs() int { return len(n.outputs) }

// Kind returns the cell kind of node v.
func (n *Netlist) Kind(v Node) tech.CellKind { return n.gates[v].kind }

func (n *Netlist) check(v Node) {
	if v < 0 || int(v) >= len(n.gates) {
		panic(fmt.Sprintf("circuit: node %d out of range (have %d gates)", v, len(n.gates)))
	}
}

// Input declares a new primary input with the given name and returns
// its node.
func (n *Netlist) Input(name string) Node {
	v := Node(len(n.gates))
	n.gates = append(n.gates, gate{kind: tech.CellInput, name: name})
	n.inputs = append(n.inputs, v)
	return v
}

// Const returns a node producing the constant bit b.
func (n *Netlist) Const(b uint8) Node {
	if b > 1 {
		panic("circuit: Const accepts only 0 or 1")
	}
	v := Node(len(n.gates))
	n.gates = append(n.gates, gate{kind: tech.CellConst, constVal: b, name: fmt.Sprintf("const%d", b)})
	return v
}

func (n *Netlist) add(kind tech.CellKind, ins ...Node) Node {
	for _, in := range ins {
		n.check(in)
	}
	if len(ins) != kind.NumInputs() {
		panic(fmt.Sprintf("circuit: %v needs %d inputs, got %d", kind, kind.NumInputs(), len(ins)))
	}
	g := gate{kind: kind, nin: len(ins)}
	copy(g.in[:], ins)
	v := Node(len(n.gates))
	n.gates = append(n.gates, g)
	return v
}

// And adds a 2-input AND gate.
func (n *Netlist) And(a, b Node) Node { return n.add(tech.CellAnd2, a, b) }

// Xor adds a 2-input XOR gate.
func (n *Netlist) Xor(a, b Node) Node { return n.add(tech.CellXor2, a, b) }

// Maj3 adds a 3-input majority gate (the carry function of a full adder).
func (n *Netlist) Maj3(a, b, c Node) Node { return n.add(tech.CellMaj3, a, b, c) }

// HalfAdder adds sum and carry gates for a+b.
func (n *Netlist) HalfAdder(a, b Node) (sum, carry Node) {
	return n.Xor(a, b), n.And(a, b)
}

// FullAdder adds sum and carry gates for a+b+cin using two XORs and a
// majority gate, the canonical static-CMOS mapping.
func (n *Netlist) FullAdder(a, b, cin Node) (sum, carry Node) {
	axb := n.Xor(a, b)
	return n.Xor(axb, cin), n.Maj3(a, b, cin)
}

// MarkOutput appends v to the primary output list and returns its
// output position.
func (n *Netlist) MarkOutput(v Node) int {
	n.check(v)
	n.outputs = append(n.outputs, v)
	return len(n.outputs) - 1
}

// ReplaceWithConst rewrites node v in place into a constant gate. The
// approximate-logic-synthesis pass in package mulsynth uses this to
// delete logic under an error budget; dead fan-in logic is removed
// later by Prune. Inputs and constants may not be replaced... inputs
// because they anchor Evaluate's operand mapping.
func (n *Netlist) ReplaceWithConst(v Node, b uint8) {
	n.check(v)
	if b > 1 {
		panic("circuit: ReplaceWithConst accepts only 0 or 1")
	}
	if n.gates[v].kind == tech.CellInput {
		panic("circuit: cannot replace a primary input with a constant")
	}
	n.gates[v] = gate{kind: tech.CellConst, constVal: b, name: fmt.Sprintf("const%d", b)}
}

// LiveMask returns, for every node, whether it is transitively reachable
// from a primary output. Primary inputs are always reported live so
// that interfaces stay stable after pruning.
func (n *Netlist) LiveMask() []bool {
	live := make([]bool, len(n.gates))
	var stack []Node
	for _, o := range n.outputs {
		if !live[o] {
			live[o] = true
			stack = append(stack, o)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := &n.gates[v]
		for _, in := range g.in[:g.nin] {
			if !live[in] {
				live[in] = true
				stack = append(stack, in)
			}
		}
	}
	for _, in := range n.inputs {
		live[in] = true
	}
	return live
}

// Prune returns a copy of the netlist with all dead gates removed.
// Primary inputs are preserved (in order) even if unused, so the
// evaluated function over the same operand encoding is unchanged.
func (n *Netlist) Prune() *Netlist {
	live := n.LiveMask()
	remap := make([]Node, len(n.gates))
	for i := range remap {
		remap[i] = Invalid
	}
	out := New(n.name)
	for v, g := range n.gates {
		if !live[v] {
			continue
		}
		ng := g
		for i := 0; i < g.nin; i++ {
			m := remap[g.in[i]]
			if m == Invalid {
				panic("circuit: prune: fan-in pruned before fan-out")
			}
			ng.in[i] = m
		}
		remap[v] = Node(len(out.gates))
		out.gates = append(out.gates, ng)
	}
	for _, in := range n.inputs {
		out.inputs = append(out.inputs, remap[in])
	}
	for _, o := range n.outputs {
		out.outputs = append(out.outputs, remap[o])
	}
	return out
}

// Clone returns a deep copy of the netlist.
func (n *Netlist) Clone() *Netlist {
	out := New(n.name)
	out.gates = append([]gate(nil), n.gates...)
	out.inputs = append([]Node(nil), n.inputs...)
	out.outputs = append([]Node(nil), n.outputs...)
	return out
}

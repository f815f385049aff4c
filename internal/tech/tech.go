// Package tech models a 7 nm-class standard-cell library in the spirit
// of ASAP7 [Clark et al., Microelectronics Journal 2016]. It supplies
// per-cell area, intrinsic delay, and switching energy used by the
// circuit package to estimate the area, critical-path delay, and
// dynamic power of multiplier netlists.
//
// The paper characterizes multipliers with Synopsys Design Compiler on
// the real ASAP7 library; that tool chain is proprietary, so this
// package substitutes a calibrated analytical model (see DESIGN.md).
// The numbers below are chosen so that an accurate 8-bit array
// multiplier lands near the paper's Table I reference point
// (25.6 um^2, 730 ps, 22.9 uW at 1 GHz under uniform random inputs),
// and so that relative costs between cells follow typical 7 nm data.
package tech

import "fmt"

// CellKind enumerates the combinational cells the multiplier netlists
// are built from.
type CellKind int

// Supported cell kinds. CONST and INPUT occupy no silicon; they are
// netlist bookkeeping nodes.
const (
	CellInput CellKind = iota
	CellConst
	CellBuf
	CellNot
	CellAnd2
	CellOr2
	CellNand2
	CellNor2
	CellXor2
	CellXnor2
	CellAnd3
	CellOr3
	CellMaj3 // majority gate: carry of a full adder
	numCellKinds
)

var cellNames = [...]string{
	CellInput: "INPUT",
	CellConst: "CONST",
	CellBuf:   "BUFx2",
	CellNot:   "INVx1",
	CellAnd2:  "AND2x2",
	CellOr2:   "OR2x2",
	CellNand2: "NAND2x1",
	CellNor2:  "NOR2x1",
	CellXor2:  "XOR2x1",
	CellXnor2: "XNOR2x1",
	CellAnd3:  "AND3x1",
	CellOr3:   "OR3x1",
	CellMaj3:  "MAJ3x1",
}

// String returns the library cell name for the kind.
func (k CellKind) String() string {
	if k < 0 || int(k) >= len(cellNames) {
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
	return cellNames[k]
}

// NumInputs returns the fan-in of the cell kind.
func (k CellKind) NumInputs() int {
	switch k {
	case CellInput, CellConst:
		return 0
	case CellBuf, CellNot:
		return 1
	case CellAnd3, CellOr3, CellMaj3:
		return 3
	default:
		return 2
	}
}

// Cell holds the physical characteristics of one library cell.
type Cell struct {
	Kind CellKind
	// AreaUM2 is the placed cell area in square micrometres.
	AreaUM2 float64
	// DelayPS is the intrinsic pin-to-pin delay in picoseconds under a
	// nominal load. The static timing model in package circuit sums
	// these along the longest topological path.
	DelayPS float64
	// EnergyFJ is the average internal + load switching energy per
	// output transition in femtojoules.
	EnergyFJ float64
}

// Library is an immutable table of cells indexed by kind.
type Library struct {
	cells [numCellKinds]Cell
}

// Cell returns the characteristics of the given cell kind.
func (l *Library) Cell(k CellKind) Cell {
	if k < 0 || k >= numCellKinds {
		panic(fmt.Sprintf("tech: unknown cell kind %d", int(k)))
	}
	return l.cells[k]
}

// ASAP7 returns the built-in 7 nm-class library used throughout the
// experiments. Values are calibrated as described in the package
// comment; they are deterministic and version-stable so that the
// Table I reproduction is reproducible byte-for-byte.
func ASAP7() *Library {
	l := &Library{}
	set := func(k CellKind, area, delay, energy float64) {
		l.cells[k] = Cell{Kind: k, AreaUM2: area, DelayPS: delay, EnergyFJ: energy}
	}
	// Zero-cost bookkeeping nodes.
	set(CellInput, 0, 0, 0)
	set(CellConst, 0, 0, 0)
	// Combinational cells. Areas follow typical relative sizing for a
	// 7.5-track 7 nm library. Delays and energies are *effective*
	// figures calibrated against the paper's Design Compiler reference
	// point for the accurate 8-bit array multiplier (25.6 um^2,
	// 730 ps, 22.9 uW at 1 GHz): they fold in wire load, fanout
	// derating, and leakage amortization, which is why the energy per
	// transition is far above a bare-gate 7 nm figure.
	set(CellBuf, 0.0935, 15.5, 154)
	set(CellNot, 0.0467, 8.4, 84)
	set(CellNand2, 0.0701, 11.6, 134)
	set(CellNor2, 0.0701, 13.5, 140)
	set(CellAnd2, 0.0935, 17.4, 174)
	set(CellOr2, 0.0935, 18.7, 179)
	set(CellXor2, 0.1402, 25.2, 294)
	set(CellXnor2, 0.1402, 25.2, 294)
	set(CellAnd3, 0.1168, 20.6, 224)
	set(CellOr3, 0.1168, 21.9, 230)
	set(CellMaj3, 0.1635, 27.1, 322)
	return l
}

// PowerUW converts switching energy per cycle (fJ) at the given clock
// frequency (GHz) to average power in microwatts:
//
//	P[uW] = E[fJ/cycle] * f[GHz] * 1e-3.
func PowerUW(energyFJPerCycle, clockGHz float64) float64 {
	return energyFJPerCycle * clockGHz * 1e-3
}

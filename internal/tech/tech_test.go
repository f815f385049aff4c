package tech

import (
	"math"
	"strings"
	"testing"
)

func TestCellKindString(t *testing.T) {
	if CellAnd2.String() != "AND2x2" {
		t.Errorf("AND2 name = %q", CellAnd2.String())
	}
	if CellMaj3.String() != "MAJ3x1" {
		t.Errorf("MAJ3 name = %q", CellMaj3.String())
	}
	if !strings.Contains(CellKind(99).String(), "99") {
		t.Error("out-of-range kind should render numerically")
	}
}

func TestNumInputs(t *testing.T) {
	cases := map[CellKind]int{
		CellInput: 0, CellConst: 0,
		CellBuf: 1, CellNot: 1,
		CellAnd2: 2, CellOr2: 2, CellNand2: 2, CellNor2: 2, CellXor2: 2, CellXnor2: 2,
		CellAnd3: 3, CellOr3: 3, CellMaj3: 3,
	}
	for k, want := range cases {
		if got := k.NumInputs(); got != want {
			t.Errorf("%v.NumInputs() = %d, want %d", k, got, want)
		}
	}
}

func TestASAP7Monotonicity(t *testing.T) {
	l := ASAP7()
	// Free bookkeeping nodes.
	for _, k := range []CellKind{CellInput, CellConst} {
		c := l.Cell(k)
		if c.AreaUM2 != 0 || c.DelayPS != 0 || c.EnergyFJ != 0 {
			t.Errorf("%v should be free, got %+v", k, c)
		}
	}
	// All real cells have positive characteristics.
	real := []CellKind{CellBuf, CellNot, CellAnd2, CellOr2, CellNand2, CellNor2, CellXor2, CellXnor2, CellAnd3, CellOr3, CellMaj3}
	for _, k := range real {
		c := l.Cell(k)
		if c.AreaUM2 <= 0 || c.DelayPS <= 0 || c.EnergyFJ <= 0 {
			t.Errorf("%v has non-positive characteristics: %+v", k, c)
		}
	}
	// Expected relative ordering for a sane 7nm library.
	if !(l.Cell(CellNot).AreaUM2 < l.Cell(CellNand2).AreaUM2) {
		t.Error("INV should be smaller than NAND2")
	}
	if !(l.Cell(CellNand2).AreaUM2 < l.Cell(CellXor2).AreaUM2) {
		t.Error("NAND2 should be smaller than XOR2")
	}
	if !(l.Cell(CellNand2).DelayPS < l.Cell(CellXor2).DelayPS) {
		t.Error("NAND2 should be faster than XOR2")
	}
	if !(l.Cell(CellXor2).EnergyFJ > l.Cell(CellAnd2).EnergyFJ) {
		t.Error("XOR2 should burn more energy than AND2")
	}
}

func TestCellPanicsOnBadKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cell(bad) did not panic")
		}
	}()
	ASAP7().Cell(CellKind(-1))
}

func TestPowerUW(t *testing.T) {
	// 1000 fJ/cycle at 1 GHz = 1 uW.
	if got := PowerUW(1000, 1.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("PowerUW(1000,1) = %v, want 1", got)
	}
	// Linear in both arguments.
	if got := PowerUW(500, 2.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("PowerUW(500,2) = %v, want 1", got)
	}
	if PowerUW(0, 5) != 0 {
		t.Error("zero energy should be zero power")
	}
}

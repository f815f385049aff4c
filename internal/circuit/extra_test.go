package circuit

import (
	"testing"

	"github.com/appmult/retrain/internal/tech"
)

func TestLiveMask(t *testing.T) {
	n := New("lm")
	a, b := n.Input("a"), n.Input("b")
	used := n.And(a, b)
	dead := n.add(tech.CellOr2, a, b)
	deadDownstream := n.add(tech.CellNot, dead)
	n.MarkOutput(used)
	live := n.LiveMask()
	if !live[a] || !live[b] {
		t.Error("primary inputs must always be live")
	}
	if !live[used] {
		t.Error("output cone not live")
	}
	if live[dead] || live[deadDownstream] {
		t.Error("dead gates reported live")
	}
}

func TestAnalyzeCountsOnlySiliconCells(t *testing.T) {
	n := New("count")
	a := n.Input("a")
	n.Const(1)
	g := n.add(tech.CellNot, a)
	n.MarkOutput(g)
	rep := n.Analyze(tech.ASAP7(), PowerOptions{Vectors: 32, Seed: 1})
	if rep.Gates != 1 {
		t.Errorf("Gates = %d, want 1 (inputs and constants are free)", rep.Gates)
	}
	if rep.AreaUM2 != tech.ASAP7().Cell(tech.CellNot).AreaUM2 {
		t.Errorf("area %v, want one inverter", rep.AreaUM2)
	}
}

func TestCriticalPathPicksLongestCone(t *testing.T) {
	lib := tech.ASAP7()
	n := New("cp")
	a, b := n.Input("a"), n.Input("b")
	// Short path: one NAND. Long path: three XORs chained.
	short := n.add(tech.CellNand2, a, b)
	x1 := n.Xor(a, b)
	x2 := n.Xor(x1, b)
	x3 := n.Xor(x2, a)
	n.MarkOutput(short)
	n.MarkOutput(x3)
	want := 3 * lib.Cell(tech.CellXor2).DelayPS
	if got := n.CriticalPathPS(lib); got != want {
		t.Errorf("critical path %v, want %v", got, want)
	}
}

func TestEvaluateAllIntoMatchesEvaluate(t *testing.T) {
	n := New("all")
	a, b := n.Input("a"), n.Input("b")
	g := n.Xor(a, b)
	n.MarkOutput(g)
	vals := make([]uint8, n.NumGates())
	n.EvaluateAllInto(vals, 1, 1, 1)
	if vals[g] != n.Evaluate([]uint8{1, 1})[0] {
		t.Error("EvaluateAllInto diverges from Evaluate")
	}
	defer func() {
		if recover() == nil {
			t.Error("short vals slice accepted")
		}
	}()
	n.EvaluateAllInto(make([]uint8, 1), 0, 1, 0)
}

func TestPowerScalesWithActivity(t *testing.T) {
	lib := tech.ASAP7()
	// A netlist whose single gate output follows one input toggles far
	// more often than one whose output is a near-constant AND of many
	// inputs.
	follow := New("follow")
	fa := follow.Input("a")
	follow.MarkOutput(follow.add(tech.CellBuf, fa))

	rare := New("rare")
	ins := make([]Node, 6)
	for i := range ins {
		ins[i] = rare.Input("")
	}
	acc := ins[0]
	for i := 1; i < len(ins); i++ {
		acc = rare.And(acc, ins[i])
	}
	rare.MarkOutput(acc)

	_, tFollow := follow.EstimatePower(lib, PowerOptions{Vectors: 2048, Seed: 5})
	_, tRare := rare.EstimatePower(lib, PowerOptions{Vectors: 2048, Seed: 5})
	// The AND-tree has 5 gates but its deep gates almost never toggle;
	// per-gate activity must be far below the buffer's.
	if tRare/5 >= tFollow {
		t.Errorf("per-gate toggle rate: AND-tree %.3f vs buffer %.3f", tRare/5, tFollow)
	}
}

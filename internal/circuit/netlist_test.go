package circuit

import (
	"testing"
	"testing/quick"

	"github.com/appmult/retrain/internal/tech"
)

// buildGates returns a netlist with one gate of each 2-input kind over
// inputs a and b, outputs in a fixed order.
func buildGates() *Netlist {
	n := New("gates")
	a := n.Input("a")
	b := n.Input("b")
	n.MarkOutput(n.And(a, b))
	n.MarkOutput(n.add(tech.CellOr2, a, b))
	n.MarkOutput(n.add(tech.CellNand2, a, b))
	n.MarkOutput(n.add(tech.CellNor2, a, b))
	n.MarkOutput(n.Xor(a, b))
	n.MarkOutput(n.add(tech.CellXnor2, a, b))
	n.MarkOutput(n.add(tech.CellNot, a))
	n.MarkOutput(n.add(tech.CellBuf, b))
	return n
}

func TestGateTruthTables(t *testing.T) {
	n := buildGates()
	want := map[[2]uint8][8]uint8{
		{0, 0}: {0, 0, 1, 1, 0, 1, 1, 0},
		{0, 1}: {0, 1, 1, 0, 1, 0, 1, 1},
		{1, 0}: {0, 1, 1, 0, 1, 0, 0, 0},
		{1, 1}: {1, 1, 0, 0, 0, 1, 0, 1},
	}
	for in, w := range want {
		got := n.Evaluate(in[:])
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("inputs %v output %d: got %d, want %d", in, i, got[i], w[i])
			}
		}
	}
}

func TestThreeInputGates(t *testing.T) {
	n := New("g3")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("c")
	n.MarkOutput(n.add(tech.CellAnd3, a, b, c))
	n.MarkOutput(n.add(tech.CellOr3, a, b, c))
	n.MarkOutput(n.Maj3(a, b, c))
	for v := 0; v < 8; v++ {
		bits := []uint8{uint8(v & 1), uint8(v >> 1 & 1), uint8(v >> 2 & 1)}
		got := n.Evaluate(bits)
		sum := bits[0] + bits[1] + bits[2]
		wantAnd := uint8(0)
		if sum == 3 {
			wantAnd = 1
		}
		wantOr := uint8(0)
		if sum >= 1 {
			wantOr = 1
		}
		wantMaj := uint8(0)
		if sum >= 2 {
			wantMaj = 1
		}
		if got[0] != wantAnd || got[1] != wantOr || got[2] != wantMaj {
			t.Errorf("v=%d: got %v, want [%d %d %d]", v, got, wantAnd, wantOr, wantMaj)
		}
	}
}

func TestFullAdder(t *testing.T) {
	n := New("fa")
	a, b, c := n.Input("a"), n.Input("b"), n.Input("cin")
	s, co := n.FullAdder(a, b, c)
	n.MarkOutput(s)
	n.MarkOutput(co)
	for v := 0; v < 8; v++ {
		bits := []uint8{uint8(v & 1), uint8(v >> 1 & 1), uint8(v >> 2 & 1)}
		got := n.Evaluate(bits)
		total := bits[0] + bits[1] + bits[2]
		if got[0] != total&1 || got[1] != total>>1 {
			t.Errorf("fa(%v): got sum=%d carry=%d, want %d %d", bits, got[0], got[1], total&1, total>>1)
		}
	}
}

func TestHalfAdder(t *testing.T) {
	n := New("ha")
	a, b := n.Input("a"), n.Input("b")
	s, c := n.HalfAdder(a, b)
	n.MarkOutput(s)
	n.MarkOutput(c)
	for v := 0; v < 4; v++ {
		bits := []uint8{uint8(v & 1), uint8(v >> 1 & 1)}
		got := n.Evaluate(bits)
		total := bits[0] + bits[1]
		if got[0] != total&1 || got[1] != total>>1 {
			t.Errorf("ha(%v) = %v", bits, got)
		}
	}
}

func TestConstAndReplace(t *testing.T) {
	n := New("c")
	a := n.Input("a")
	g := n.And(a, n.Const(1))
	n.MarkOutput(g)
	if out := n.Evaluate([]uint8{1}); out[0] != 1 {
		t.Fatalf("AND(a,1) with a=1: got %d", out[0])
	}
	n.ReplaceWithConst(g, 0)
	if out := n.Evaluate([]uint8{1}); out[0] != 0 {
		t.Fatalf("after ReplaceWithConst: got %d", out[0])
	}
}

func TestReplaceInputPanics(t *testing.T) {
	n := New("c")
	a := n.Input("a")
	n.MarkOutput(a)
	defer func() {
		if recover() == nil {
			t.Error("replacing a primary input should panic")
		}
	}()
	n.ReplaceWithConst(a, 0)
}

func TestEvaluateUint2(t *testing.T) {
	// Build a 2-bit x 2-bit AND-plane (no adders): out[i+j] collects a
	// single pp for distinct (i,j), enough to check operand wiring.
	n := New("wire")
	a0, a1 := n.Input("a0"), n.Input("a1")
	b0, b1 := n.Input("b0"), n.Input("b1")
	n.MarkOutput(n.And(a0, b0))
	n.MarkOutput(n.And(a1, b1))
	if got := n.EvaluateUint2(0b01, 2, 0b01); got != 0b01 {
		t.Errorf("a=1,b=1: got %b", got)
	}
	if got := n.EvaluateUint2(0b10, 2, 0b10); got != 0b10 {
		t.Errorf("a=2,b=2: got %b", got)
	}
	if got := n.EvaluateUint2(0b01, 2, 0b10); got != 0 {
		t.Errorf("a=1,b=2: got %b", got)
	}
}

func TestPrunePreservesFunction(t *testing.T) {
	n := New("p")
	a, b := n.Input("a"), n.Input("b")
	keep := n.Xor(a, b)
	// Dead logic.
	d := n.And(a, b)
	n.add(tech.CellOr2, d, b)
	n.MarkOutput(keep)
	before := n.NumGates()
	p := n.Prune()
	if p.NumGates() >= before {
		t.Errorf("prune removed nothing: %d -> %d", before, p.NumGates())
	}
	if p.NumInputs() != 2 || p.NumOutputs() != 1 {
		t.Fatalf("prune changed interface: %d in, %d out", p.NumInputs(), p.NumOutputs())
	}
	for v := 0; v < 4; v++ {
		bits := []uint8{uint8(v & 1), uint8(v >> 1 & 1)}
		if n.Evaluate(bits)[0] != p.Evaluate(bits)[0] {
			t.Errorf("prune changed function at %v", bits)
		}
	}
}

func TestPrunePreservesUnusedInputs(t *testing.T) {
	n := New("p")
	a := n.Input("a")
	n.Input("unused")
	n.MarkOutput(n.add(tech.CellNot, a))
	p := n.Prune()
	if p.NumInputs() != 2 {
		t.Fatalf("unused input dropped: have %d inputs", p.NumInputs())
	}
	if got := p.Evaluate([]uint8{0, 1})[0]; got != 1 {
		t.Errorf("NOT(0) = %d after prune", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := New("c")
	a := n.Input("a")
	g := n.add(tech.CellNot, a)
	n.MarkOutput(g)
	c := n.Clone()
	n.ReplaceWithConst(g, 1)
	if c.Evaluate([]uint8{1})[0] != 0 {
		t.Error("clone was mutated through original")
	}
	if n.Evaluate([]uint8{1})[0] != 1 {
		t.Error("original not mutated")
	}
}

func TestXorChainProperty(t *testing.T) {
	// XOR chain over k inputs computes parity; checked by quick.
	n := New("parity")
	const k = 8
	ins := make([]Node, k)
	for i := range ins {
		ins[i] = n.Input("")
	}
	acc := ins[0]
	for i := 1; i < k; i++ {
		acc = n.Xor(acc, ins[i])
	}
	n.MarkOutput(acc)
	f := func(v uint8) bool {
		bits := make([]uint8, k)
		var parity uint8
		for i := 0; i < k; i++ {
			bits[i] = (v >> uint(i)) & 1
			parity ^= bits[i]
		}
		return n.Evaluate(bits)[0] == parity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeReport(t *testing.T) {
	n := buildGates()
	lib := tech.ASAP7()
	rep := n.Analyze(lib, PowerOptions{Vectors: 512, Seed: 7})
	if rep.Gates != 8 {
		t.Errorf("gate count = %d, want 8", rep.Gates)
	}
	if rep.AreaUM2 <= 0 || rep.DelayPS <= 0 || rep.PowerUW <= 0 {
		t.Errorf("non-positive report: %+v", rep)
	}
	// Critical path through a single 2-input gate equals that cell's delay.
	single := New("s")
	a, b := single.Input("a"), single.Input("b")
	single.MarkOutput(single.Xor(a, b))
	if got, want := single.CriticalPathPS(lib), lib.Cell(tech.CellXor2).DelayPS; got != want {
		t.Errorf("critical path = %v, want %v", got, want)
	}
}

func TestPowerDeterminism(t *testing.T) {
	n := buildGates()
	lib := tech.ASAP7()
	p1, t1 := n.EstimatePower(lib, PowerOptions{Vectors: 256, Seed: 42})
	p2, t2 := n.EstimatePower(lib, PowerOptions{Vectors: 256, Seed: 42})
	if p1 != p2 || t1 != t2 {
		t.Error("power estimate not deterministic for equal seeds")
	}
	p3, _ := n.EstimatePower(lib, PowerOptions{Vectors: 256, Seed: 43})
	if p1 == p3 {
		t.Log("different seeds produced identical power (possible but unlikely)")
	}
}

func TestConstHasNoPower(t *testing.T) {
	n := New("const")
	n.Input("a")
	n.MarkOutput(n.Const(1))
	p, toggles := n.EstimatePower(tech.ASAP7(), PowerOptions{Vectors: 128})
	if p != 0 || toggles != 0 {
		t.Errorf("constant netlist dissipates power: %v uW, %v toggles", p, toggles)
	}
}

func TestBadConstructionPanics(t *testing.T) {
	n := New("bad")
	a := n.Input("a")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Const(2)", func() { n.Const(2) })
	mustPanic("bad node ref", func() { n.And(a, Node(99)) })
	mustPanic("Evaluate wrong arity", func() { n.Evaluate([]uint8{0, 1}) })
	mustPanic("Evaluate non-binary", func() { n.Evaluate([]uint8{3}) })
}

package circuit

import (
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/tech"
)

func TestWriteVerilogStructure(t *testing.T) {
	n := New("half_adder")
	a, b := n.Input("a"), n.Input("b")
	s, c := n.HalfAdder(a, b)
	n.MarkOutput(s)
	n.MarkOutput(c)

	var sb strings.Builder
	if err := n.WriteVerilog(&sb, "half_adder"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module half_adder(",
		"input  a,",
		"input  b,",
		"output y0,",
		"output y1",
		"xor(",
		"and(",
		"assign y0 =",
		"assign y1 =",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("Verilog missing %q:\n%s", want, v)
		}
	}
}

func TestWriteVerilogMaj3AndConst(t *testing.T) {
	n := New("m")
	a, b := n.Input("a"), n.Input("b")
	one := n.Const(1)
	n.MarkOutput(n.Maj3(a, b, one))

	var sb strings.Builder
	if err := n.WriteVerilog(&sb, "maj"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	if !strings.Contains(v, "1'b1") {
		t.Errorf("constant not emitted:\n%s", v)
	}
	// Majority expands to sum-of-products.
	if !strings.Contains(v, "&") || !strings.Contains(v, "|") {
		t.Errorf("majority not expanded:\n%s", v)
	}
}

func TestWriteVerilogSanitizesNames(t *testing.T) {
	n := New("x")
	weird := n.Input("2bad name!")
	n.MarkOutput(n.add(tech.CellNot, weird))
	var sb strings.Builder
	if err := n.WriteVerilog(&sb, "8module-name"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	if strings.Contains(v, "2bad name!") || strings.Contains(v, "8module-name") {
		t.Errorf("identifiers not sanitized:\n%s", v)
	}
	if !strings.Contains(v, "module m8module_name(") {
		t.Errorf("module name mangled unexpectedly:\n%s", v)
	}
}

func TestWriteVerilogDuplicateInputNames(t *testing.T) {
	n := New("dup")
	a := n.Input("a")
	a2 := n.Input("a") // duplicate declared name
	n.MarkOutput(n.And(a, a2))
	var sb strings.Builder
	if err := n.WriteVerilog(&sb, "dup"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	if !strings.Contains(v, "in1") {
		t.Errorf("duplicate input not renamed:\n%s", v)
	}
}

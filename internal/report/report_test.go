package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	var sb strings.Builder
	tb.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "name", "alpha", "beta", "2.50", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count %d:\n%s", len(lines), out)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	tb.AddRow("x", "y", "dropped")
	var sb strings.Builder
	tb.WriteText(&sb)
	if strings.Contains(sb.String(), "dropped") {
		t.Error("extra cell not dropped")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("curve", "epoch", "ste", "ours")
	s.Add(1, 50.0, 52.5)
	s.Add(2, 60.0, 66.25)
	if len(s.points) != 2 {
		t.Fatalf("len = %d", len(s.points))
	}
	var sb strings.Builder
	s.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"curve", "epoch", "66.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("series output missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesArityPanics(t *testing.T) {
	s := NewSeries("c", "x", "y")
	defer func() {
		if recover() == nil {
			t.Error("wrong arity accepted")
		}
	}()
	s.Add(1)
}

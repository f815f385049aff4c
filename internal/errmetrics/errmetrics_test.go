package errmetrics

import (
	"math"
	"strings"
	"testing"
)

func accMul(w, x uint32) uint32 { return w * x }

func TestExhaustiveAccurate(t *testing.T) {
	m := Exhaustive(6, accMul)
	if m.ERPercent != 0 || m.NMEDPercent != 0 || m.MaxED != 0 || m.MeanED != 0 {
		t.Errorf("accurate multiplier has errors: %+v", m)
	}
}

func TestExhaustiveConstantError(t *testing.T) {
	// approx = acc + 3 everywhere: ER=100, MeanED=3, MaxED=3.
	m := Exhaustive(4, func(w, x uint32) uint32 { return w*x + 3 })
	if m.ERPercent != 100 {
		t.Errorf("ER = %v", m.ERPercent)
	}
	if m.MeanED != 3 || m.MaxED != 3 {
		t.Errorf("MeanED=%v MaxED=%v", m.MeanED, m.MaxED)
	}
	wantNMED := 3.0 / 255 * 100
	if math.Abs(m.NMEDPercent-wantNMED) > 1e-9 {
		t.Errorf("NMED = %v, want %v", m.NMEDPercent, wantNMED)
	}
}

func TestExhaustiveSingleWrongEntry(t *testing.T) {
	// One wrong pair out of 256: ER = 1/256.
	m := Exhaustive(4, func(w, x uint32) uint32 {
		if w == 5 && x == 7 {
			return 0
		}
		return w * x
	})
	if math.Abs(m.ERPercent-100.0/256) > 1e-9 {
		t.Errorf("ER = %v", m.ERPercent)
	}
	if m.MaxED != 35 {
		t.Errorf("MaxED = %d, want 35", m.MaxED)
	}
}

func TestExhaustiveMatchesPaperTruncationFormula(t *testing.T) {
	// For the rm-k family, MeanED = RemovedWeight/4 analytically; the
	// paper's mul8u_rm8 row (NMED 0.68%, MaxED 1793) follows.
	rm8 := func(w, x uint32) uint32 {
		var y uint32
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i+j >= 8 && (w>>uint(i))&1 == 1 && (x>>uint(j))&1 == 1 {
					y += 1 << uint(i+j)
				}
			}
		}
		return y
	}
	m := Exhaustive(8, rm8)
	if m.MaxED != 1793 {
		t.Errorf("MaxED = %d, want 1793", m.MaxED)
	}
	if math.Abs(m.MeanED-1793.0/4) > 1e-9 {
		t.Errorf("MeanED = %v, want %v", m.MeanED, 1793.0/4)
	}
	if math.Abs(m.NMEDPercent-0.68) > 0.005 {
		t.Errorf("NMED = %.4f%%, want 0.68%%", m.NMEDPercent)
	}
}

func TestMetricsString(t *testing.T) {
	s := Metrics{ERPercent: 98.0, NMEDPercent: 0.68, MaxED: 1793}.String()
	for _, want := range []string{"98.0", "0.68", "1793"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestExhaustiveWidthGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bits=13 accepted")
		}
	}()
	Exhaustive(13, accMul)
}

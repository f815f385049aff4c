package mulsynth

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/tech"
)

func TestFullMaskIsAccurate(t *testing.T) {
	for _, bits := range []int{2, 4, 6} {
		m := FullMask(bits)
		nv := uint32(bitutil.NumInputs(bits))
		for w := uint32(0); w < nv; w++ {
			for x := uint32(0); x < nv; x++ {
				if got := m.Mul(w, x, 0); got != w*x {
					t.Fatalf("bits=%d: Mul(%d,%d) = %d, want %d", bits, w, x, got, w*x)
				}
			}
		}
	}
}

func TestTruncMaskErrorStructure(t *testing.T) {
	// For the rm-k family, the error equals the sum of removed pp
	// weights, so approx <= exact always and MaxED = RemovedWeight.
	m := TruncMask(6, 4)
	if got, want := m.RemovedWeight(), int64(1+2*2+3*4+4*8); got != want {
		t.Fatalf("RemovedWeight = %d, want %d", got, want)
	}
	var maxED int64
	for w := uint32(0); w < 64; w++ {
		for x := uint32(0); x < 64; x++ {
			y := int64(m.Mul(w, x, 0))
			e := int64(w*x) - y
			if e < 0 {
				t.Fatalf("truncated multiplier overshot at (%d,%d)", w, x)
			}
			if e > maxED {
				maxED = e
			}
		}
	}
	if maxED != m.RemovedWeight() {
		t.Errorf("MaxED = %d, want %d", maxED, m.RemovedWeight())
	}
}

func TestTruncMaskPaperFig2(t *testing.T) {
	// The paper's Fig. 2 multiplier: 7-bit, rightmost 6 columns removed.
	m := TruncMask(7, 6)
	removed := 0
	for i := 0; i < 7; i++ {
		for j := 0; j < 7; j++ {
			if !m.Keep[i][j] {
				if i+j >= 6 {
					t.Fatalf("pp(%d,%d) removed but column %d >= 6", i, j, i+j)
				}
				removed++
			}
		}
	}
	// Columns 0..5 hold 1+2+3+4+5+6 = 21 partial products.
	if removed != 21 {
		t.Errorf("removed %d pps, want 21", removed)
	}
}

func TestPerforationMask(t *testing.T) {
	m := perforationMask(4, 0, 2)
	// Rows 0 and 2 gone: w bits 0 and 2 contribute nothing.
	if got := m.Mul(0b0101, 0b1111, 0); got != 0 {
		t.Errorf("perforated rows still contribute: %d", got)
	}
	if got := m.Mul(0b1010, 0b0001, 0); got != 0b1010 {
		t.Errorf("kept rows broken: %d", got)
	}
}

func TestMaskCloneDelete(t *testing.T) {
	m := FullMask(4)
	c := m.Clone().Delete(1, 2)
	if !m.Keep[1][2] {
		t.Error("Delete on clone mutated original")
	}
	if c.Keep[1][2] {
		t.Error("Delete did not remove pp")
	}
	if got := c.RemovedWeight(); got != 8 {
		t.Errorf("RemovedWeight = %d, want 8", got)
	}
}

// TestBuildMatchesBehavior is the load-bearing equivalence test: the
// synthesized netlist must compute exactly the behavioral masked
// multiplication for every operand pair.
func TestBuildMatchesBehavior(t *testing.T) {
	cases := []struct {
		name string
		bits int
		mask PPMask
		comp uint32
	}{
		{"acc4", 4, FullMask(4), 0},
		{"rm2_4", 4, TruncMask(4, 2), 0},
		{"rm4_6", 6, TruncMask(6, 4), 0},
		{"rm4_6_comp", 6, TruncMask(6, 4), 12},
		{"perf4", 4, perforationMask(4, 1), 0},
		{"scatter5", 5, FullMask(5).Delete(0, 0).Delete(1, 3).Delete(4, 4), 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := Build(c.name, c.mask, c.comp)
			nv := uint32(bitutil.NumInputs(c.bits))
			for w := uint32(0); w < nv; w++ {
				for x := uint32(0); x < nv; x++ {
					want := c.mask.Mul(w, x, c.comp)
					got := uint32(n.EvaluateUint2(uint64(w), c.bits, uint64(x)))
					if got != want {
						t.Fatalf("netlist(%d,%d) = %d, want %d", w, x, got, want)
					}
				}
			}
		})
	}
}

func TestBuildAccurateProperty(t *testing.T) {
	n := BuildAccurate("acc8", 8)
	f := func(w, x uint8) bool {
		return n.EvaluateUint2(uint64(w), 8, uint64(x)) == uint64(w)*uint64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruncCostsLessThanAccurate(t *testing.T) {
	lib := tech.ASAP7()
	acc := BuildAccurate("acc8", 8)
	rm8 := Build("rm8", TruncMask(8, 8), 0)
	accRep := acc.Analyze(lib, circuit.PowerOptions{Vectors: 512})
	rmRep := rm8.Analyze(lib, circuit.PowerOptions{Vectors: 512})
	if rmRep.AreaUM2 >= accRep.AreaUM2 {
		t.Errorf("rm8 area %.2f not below accurate %.2f", rmRep.AreaUM2, accRep.AreaUM2)
	}
	if rmRep.PowerUW >= accRep.PowerUW {
		t.Errorf("rm8 power %.2f not below accurate %.2f", rmRep.PowerUW, accRep.PowerUW)
	}
	if rmRep.DelayPS > accRep.DelayPS {
		t.Errorf("rm8 delay %.2f above accurate %.2f", rmRep.DelayPS, accRep.DelayPS)
	}
}

func TestLUTFromNetlist(t *testing.T) {
	bits := 4
	mask := TruncMask(bits, 3)
	n := Build("rm3_4", mask, 0)
	lut := LUTFromNetlist(n, bits)
	if len(lut) != bitutil.NumPairs(bits) {
		t.Fatalf("LUT size %d, want %d", len(lut), bitutil.NumPairs(bits))
	}
	for w := uint32(0); w < 16; w++ {
		for x := uint32(0); x < 16; x++ {
			if lut[bitutil.PairIndex(w, x, bits)] != mask.Mul(w, x, 0) {
				t.Fatalf("LUT mismatch at (%d,%d)", w, x)
			}
		}
	}
}

func TestApproxSynthReducesAreaWithinBudget(t *testing.T) {
	lib := tech.ASAP7()
	bits := 5
	acc := BuildAccurate("acc5", bits)
	budget := 0.6 // percent NMED
	syn, subs := ApproxSynth(acc, bits, lib, ALSOptions{NMEDBudget: budget, SampleVectors: 512, Seed: 3, MaxSubs: 12})
	if len(subs) == 0 {
		t.Fatal("ALS accepted no substitutions at a generous budget")
	}
	if syn.Area(lib) >= acc.Area(lib) {
		t.Errorf("ALS did not reduce area: %.3f -> %.3f", acc.Area(lib), syn.Area(lib))
	}
	// Exhaustive NMED of the result should be near the sampled budget;
	// allow 2x slack for sampling noise.
	var sum float64
	nv := uint32(bitutil.NumInputs(bits))
	for w := uint32(0); w < nv; w++ {
		for x := uint32(0); x < nv; x++ {
			y := int64(syn.EvaluateUint2(uint64(w), bits, uint64(x)))
			sum += float64(bitutil.AbsDiff(y, int64(w)*int64(x)))
		}
	}
	nmed := sum / float64(nv*nv) / float64(int64(1)<<uint(2*bits)-1) * 100
	if nmed > 2*budget {
		t.Errorf("exhaustive NMED %.3f%% far above budget %.3f%%", nmed, budget)
	}
	// Interface preserved.
	if syn.NumInputs() != 2*bits || syn.NumOutputs() != acc.NumOutputs() {
		t.Errorf("ALS changed interface: %d in %d out", syn.NumInputs(), syn.NumOutputs())
	}
}

func TestApproxSynthDeterminism(t *testing.T) {
	lib := tech.ASAP7()
	acc := BuildAccurate("acc4", 4)
	_, s1 := ApproxSynth(acc, 4, lib, ALSOptions{NMEDBudget: 1.0, SampleVectors: 256, Seed: 9, MaxSubs: 6})
	_, s2 := ApproxSynth(acc, 4, lib, ALSOptions{NMEDBudget: 1.0, SampleVectors: 256, Seed: 9, MaxSubs: 6})
	if len(s1) != len(s2) {
		t.Fatalf("runs differ in length: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Gate != s2[i].Gate || s1[i].Const != s2[i].Const {
			t.Fatalf("substitution %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestApproxSynthZeroBudgetIsIdentityFunction(t *testing.T) {
	lib := tech.ASAP7()
	bits := 4
	acc := BuildAccurate("acc4", bits)
	syn, subs := ApproxSynth(acc, bits, lib, ALSOptions{NMEDBudget: 0, SampleVectors: 256, Seed: 1})
	// Substitutions with zero error (truly redundant gates) are
	// allowed, but the function must be exact.
	_ = subs
	for w := uint32(0); w < 16; w++ {
		for x := uint32(0); x < 16; x++ {
			if got := uint32(syn.EvaluateUint2(uint64(w), bits, uint64(x))); got != w*x {
				t.Fatalf("zero-budget ALS changed function at (%d,%d): %d", w, x, got)
			}
		}
	}
}

// perforationMask removes entire partial-product rows (all pp for the
// listed w-bit indices), a classic perforation approximation.
func perforationMask(bits int, rows ...int) PPMask {
	m := FullMask(bits)
	for _, r := range rows {
		if r < 0 || r >= bits {
			panic(fmt.Sprintf("mulsynth: perforated row %d outside [0,%d)", r, bits))
		}
		for j := 0; j < bits; j++ {
			m.Keep[r][j] = false
		}
	}
	return m
}

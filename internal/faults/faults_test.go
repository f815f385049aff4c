package faults

import (
	"math"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/gradient"
)

func baseLUT(bits int) []uint32 {
	return appmult.BuildLUT(appmult.NewAccurate(bits))
}

func TestInjectorReproducible(t *testing.T) {
	lut := baseLUT(6)
	m := Model{Kind: BitFlip, Rate: 0.05, Seed: 7}
	a, fa := NewInjector(m, 6).Faulty(lut)
	b, fb := NewInjector(m, 6).Faulty(lut)
	if len(fa) != len(fb) {
		t.Fatalf("fault counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("faulted LUTs differ at %d", i)
		}
	}
}

func TestInjectorExactCountAndOriginalUntouched(t *testing.T) {
	lut := baseLUT(6)
	orig := append([]uint32(nil), lut...)
	n := bitutil.NumPairs(6)
	for _, rate := range []float64{0, 0.01, 0.125, 1} {
		_, fs := NewInjector(Model{Kind: BitFlip, Rate: rate, Seed: 3}, 6).Faulty(lut)
		want := int(math.Round(rate * float64(n)))
		if len(fs) != want {
			t.Errorf("rate %g: %d faults, want %d", rate, len(fs), want)
		}
		seen := map[int]bool{}
		for _, f := range fs {
			if seen[f.Index] {
				t.Fatalf("rate %g: duplicate fault index %d", rate, f.Index)
			}
			seen[f.Index] = true
		}
	}
	for i := range lut {
		if lut[i] != orig[i] {
			t.Fatal("Faulty mutated the base LUT")
		}
	}
}

func TestKindSemantics(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		v    uint32
		bit  int
		want uint32
	}{
		{StuckAt0, 0b1111, 1, 0b1101},
		{StuckAt0, 0b1101, 1, 0b1101},
		{StuckAt1, 0b0000, 2, 0b0100},
		{StuckAt1, 0b0100, 2, 0b0100},
		{BitFlip, 0b0100, 2, 0b0000},
		{BitFlip, 0b0000, 2, 0b0100},
	} {
		if got := (Fault{Bit: tc.bit, Kind: tc.kind}).apply(tc.v); got != tc.want {
			t.Errorf("%s bit %d on %#b: got %#b want %#b", tc.kind, tc.bit, tc.v, got, tc.want)
		}
	}
}

func TestBitDistBias(t *testing.T) {
	lut := baseLUT(8)
	mean := func(d BitDist) float64 {
		_, fs := NewInjector(Model{Kind: BitFlip, Rate: 0.2, Dist: d, Seed: 11}, 8).Faulty(lut)
		var s float64
		for _, f := range fs {
			s += float64(f.Bit)
		}
		return s / float64(len(fs))
	}
	lo, mid, hi := mean(BitsLow), mean(BitsUniform), mean(BitsHigh)
	if !(lo < mid && mid < hi) {
		t.Errorf("bit means not ordered: low %.2f uniform %.2f high %.2f", lo, mid, hi)
	}
}

func TestTransientResamples(t *testing.T) {
	lut := baseLUT(6)
	in := NewInjector(Model{Kind: BitFlip, Rate: 0.05, Seed: 5, Transient: true}, 6)
	_, f1 := in.Faulty(lut)
	_, f2 := in.Faulty(lut)
	same := len(f1) == len(f2)
	if same {
		for i := range f1 {
			if f1[i] != f2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("transient injector drew identical fault sets twice")
	}

	perm := NewInjector(Model{Kind: BitFlip, Rate: 0.05, Seed: 5}, 6)
	_, p1 := perm.Faulty(lut)
	_, p2 := perm.Faulty(lut)
	if len(p1) != len(p2) {
		t.Fatal("permanent injector changed fault count")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("permanent injector resampled its fault set")
		}
	}
}

func TestFaultyTables(t *testing.T) {
	tables := gradient.STE(6)
	faulty, fs := FaultyTables(tables, Model{Kind: BitFlip, Rate: 0.01, Seed: 9})
	if len(fs) == 0 {
		t.Fatal("no faults injected")
	}
	if faulty == tables || &faulty.DW[0] == &tables.DW[0] {
		t.Fatal("FaultyTables aliases its input")
	}
	diff := 0
	for i := range faulty.DW {
		if math.Float32bits(faulty.DW[i]) != math.Float32bits(tables.DW[i]) {
			diff++
		}
	}
	for i := range faulty.DX {
		if math.Float32bits(faulty.DX[i]) != math.Float32bits(tables.DX[i]) {
			diff++
		}
	}
	// Stuck-at faults can be no-ops; bit flips never are.
	if diff != len(fs) {
		t.Errorf("%d entries changed, want %d", diff, len(fs))
	}
}

func TestSweepDeterministicAndMonotoneFaults(t *testing.T) {
	lut := baseLUT(6)
	// eval scores the LUT's fidelity so degradation is observable
	// without training a model: fraction of intact entries.
	eval := func(l []uint32, fs []Fault) float64 {
		intact := 0
		for i := range l {
			if l[i] == lut[i] {
				intact++
			}
		}
		return 100 * float64(intact) / float64(len(l))
	}
	rates := []float64{0, 0.01, 0.1, 0.5}
	m := Model{Kind: BitFlip, Rate: 0, Seed: 13}
	a := Sweep(lut, 6, m, rates, 3, eval)
	b := Sweep(lut, 6, m, rates, 3, eval)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep point %d not reproducible: %+v vs %+v", i, a[i], b[i])
		}
	}
	if a[0].MeanTop1 != 100 {
		t.Errorf("zero-rate point degraded: %+v", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i].MeanFaults <= a[i-1].MeanFaults {
			t.Errorf("fault counts not increasing: %+v then %+v", a[i-1], a[i])
		}
		if a[i].MeanTop1 >= a[i-1].MeanTop1 {
			t.Errorf("fidelity not decreasing: %+v then %+v", a[i-1], a[i])
		}
		if a[i].MinTop1 > a[i].MeanTop1 || a[i].MaxTop1 < a[i].MeanTop1 {
			t.Errorf("min/mean/max inconsistent: %+v", a[i])
		}
	}
}

package gradient

import (
	"fmt"
	"math"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/bitutil"
)

func mulInfo(t *testing.T, name string) MulInfo {
	t.Helper()
	e, ok := appmult.Lookup(name)
	if !ok {
		t.Fatalf("registry lost %s", name)
	}
	return MulInfo{Name: e.Mult.Name(), Bits: e.Mult.Bits(), HWS: e.HWS, Mul: e.Mult.Mul}
}

// parseCases are specs ParseEstimator accepts, with the Name and
// Describe of what they parse to; badSpecs are specs it rejects. Both
// seed FuzzParseEstimator.
var parseCases = []struct {
	spec     string
	name     string
	describe string
}{
	{"ste", "ste", "ste"},
	{"smoothdiff", "smoothdiff", "smoothdiff"},
	{"smoothdiff(hws=8)", "smoothdiff", "smoothdiff(hws=8)"},
	{" smoothdiff( hws = 8 ) ", "smoothdiff", "smoothdiff(hws=8)"},
	{"cvste", "cvste", "cvste"},
	{"stochastic", "stochastic", "stochastic(seed=0,samples=4,radius=4)"},
	{"stochastic(seed=7,samples=8,radius=2)", "stochastic", "stochastic(seed=7,samples=8,radius=2)"},
	{"rawdiff", "rawdiff", "rawdiff"},
}

var badSpecs = []string{
	"gradient-descent",          // unknown name
	"smoothdiff(hws=8",          // missing )
	"smoothdiff(hws)",           // missing =
	"smoothdiff(hws=four)",      // non-integer
	"ste(seed=1)",               // parameter on parameterless estimator
	"stochastic(temperature=2)", // unknown parameter
}

func TestParseEstimatorSpecs(t *testing.T) {
	for _, c := range parseCases {
		est, err := ParseEstimator(c.spec)
		if err != nil {
			t.Errorf("ParseEstimator(%q): %v", c.spec, err)
			continue
		}
		if est.Name() != c.name {
			t.Errorf("ParseEstimator(%q).Name() = %q, want %q", c.spec, est.Name(), c.name)
		}
		if est.Describe() != c.describe {
			t.Errorf("ParseEstimator(%q).Describe() = %q, want %q", c.spec, est.Describe(), c.describe)
		}
	}
}

func TestParseEstimatorRejectsBadSpecs(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := ParseEstimator(spec); err == nil {
			t.Errorf("ParseEstimator(%q) accepted", spec)
		}
	}
}

func TestEstimatorNamesAllParse(t *testing.T) {
	names := EstimatorNames()
	if len(names) != 5 {
		t.Fatalf("EstimatorNames() = %v, want 5 entries", names)
	}
	for _, n := range names {
		est, err := ParseEstimator(n)
		if err != nil {
			t.Errorf("registered name %q does not parse: %v", n, err)
			continue
		}
		if est.Name() != n {
			t.Errorf("ParseEstimator(%q).Name() = %q", n, est.Name())
		}
	}
}

// TestSmoothDiffMatchesDifference pins the seam's headline guarantee:
// the SmoothDiff estimator produces the very same Tables object the
// pre-seam Difference() builder did — Float32bits-identical — both at
// the registry-selected HWS and under the clamping rules.
func TestSmoothDiffMatchesDifference(t *testing.T) {
	info := mulInfo(t, "mul7u_rm6")
	want := Difference(info.Name, info.Bits, info.HWS, info.Mul)
	got := SmoothDiff{}.Tables(info)
	if got.Name != want.Name || got.HWS != want.HWS || got.Estimator != EstSmoothDiff {
		t.Fatalf("metadata: got {%s %s hws=%d}, want {%s %s hws=%d}",
			got.Name, got.Estimator, got.HWS, want.Name, EstSmoothDiff, want.HWS)
	}
	for i := range want.DW {
		if math.Float32bits(got.DW[i]) != math.Float32bits(want.DW[i]) ||
			math.Float32bits(got.DX[i]) != math.Float32bits(want.DX[i]) {
			t.Fatalf("tables differ at index %d", i)
		}
	}
}

func TestSmoothDiffClamping(t *testing.T) {
	info := mulInfo(t, "mul7u_rm6")
	// Registry "not applicable" marker clamps to 1.
	info.HWS = 0
	if got := (SmoothDiff{}).EffectiveHWS(info); got != 1 {
		t.Errorf("HWS 0 resolved to %d, want 1", got)
	}
	// Oversized values clamp to MaxHWS.
	if got := (SmoothDiff{HWS: 10_000}).EffectiveHWS(info); got != MaxHWS(info.Bits) {
		t.Errorf("HWS 10000 resolved to %d, want %d", got, MaxHWS(info.Bits))
	}
	// An explicit override wins over the registry value.
	info.HWS = 6
	if got := (SmoothDiff{HWS: 2}).EffectiveHWS(info); got != 2 {
		t.Errorf("override resolved to %d, want 2", got)
	}
}

// TestCVSTEOracle checks the control-variate correction against a
// brute-force oracle: the mean of the error's first differences along
// each row/column, accumulated in exact int64 arithmetic. The
// telescoped closed form must agree exactly (same float64, hence same
// float32 bits in the table).
func TestCVSTEOracle(t *testing.T) {
	info := mulInfo(t, "mul7u_rm6")
	nv := bitutil.NumInputs(info.Bits)
	tb := ControlVariateSTE{}.Tables(info)
	if tb.Estimator != EstCVSTE {
		t.Fatalf("Estimator = %q, want %q", tb.Estimator, EstCVSTE)
	}

	eps := func(w, x int) int64 {
		return int64(info.Mul(uint32(w), uint32(x))) - int64(w)*int64(x)
	}
	// Brute-force row correction cX(w): mean over x of eps(w,x+1)-eps(w,x).
	for w := 0; w < nv; w++ {
		var sum int64
		for x := 0; x+1 < nv; x++ {
			sum += eps(w, x+1) - eps(w, x)
		}
		want := float32(float64(w) + float64(sum)/float64(nv-1))
		for x := 0; x < nv; x++ {
			_, dx := tb.At(uint32(w), uint32(x))
			if math.Float32bits(dx) != math.Float32bits(want) {
				t.Fatalf("DX(%d,%d) = %v, oracle %v", w, x, dx, want)
			}
		}
	}
	// Brute-force column correction cW(x), symmetrically.
	for x := 0; x < nv; x++ {
		var sum int64
		for w := 0; w+1 < nv; w++ {
			sum += eps(w+1, x) - eps(w, x)
		}
		want := float32(float64(x) + float64(sum)/float64(nv-1))
		for w := 0; w < nv; w++ {
			dw, _ := tb.At(uint32(w), uint32(x))
			if math.Float32bits(dw) != math.Float32bits(want) {
				t.Fatalf("DW(%d,%d) = %v, oracle %v", w, x, dw, want)
			}
		}
	}
}

// TestCVSTEAccurateReducesToSTE: an accurate multiplier has zero error,
// so the control-variate correction vanishes and CVSTE degenerates to
// the STE tables exactly.
func TestCVSTEAccurateReducesToSTE(t *testing.T) {
	m := appmult.NewAccurate(6)
	info := MulInfo{Name: m.Name(), Bits: m.Bits(), Mul: m.Mul}
	cv := ControlVariateSTE{}.Tables(info)
	ste := STE(6)
	for i := range ste.DW {
		if math.Float32bits(cv.DW[i]) != math.Float32bits(ste.DW[i]) ||
			math.Float32bits(cv.DX[i]) != math.Float32bits(ste.DX[i]) {
			t.Fatalf("accurate CVSTE != STE at index %d", i)
		}
	}
}

func tablesEqual(a, b *Tables) bool {
	for i := range a.DW {
		if math.Float32bits(a.DW[i]) != math.Float32bits(b.DW[i]) ||
			math.Float32bits(a.DX[i]) != math.Float32bits(b.DX[i]) {
			return false
		}
	}
	return true
}

// TestStochasticDeterministicUnderSeed: equal seeds build bit-identical
// tables (the estimator's RNG is a pure function of (seed, w, x, k)),
// different seeds almost surely differ somewhere.
func TestStochasticDeterministicUnderSeed(t *testing.T) {
	info := mulInfo(t, "mul7u_rm6")
	a := Stochastic{Seed: 7}.Tables(info)
	b := Stochastic{Seed: 7}.Tables(info)
	if !tablesEqual(a, b) {
		t.Fatal("same seed produced different tables")
	}
	c := Stochastic{Seed: 8}.Tables(info)
	if tablesEqual(a, c) {
		t.Fatal("different seeds produced identical tables")
	}
	if a.Estimator != EstStochastic {
		t.Errorf("Estimator = %q, want %q", a.Estimator, EstStochastic)
	}
}

// TestStochasticSlopeSanity: on the accurate multiplier every secant
// slope of a row equals the exact slope (the row is linear), so the
// sampled estimate is exact regardless of the random radii.
func TestStochasticSlopeSanity(t *testing.T) {
	m := appmult.NewAccurate(6)
	info := MulInfo{Name: m.Name(), Bits: m.Bits(), Mul: m.Mul}
	tb := Stochastic{Seed: 3}.Tables(info)
	nv := bitutil.NumInputs(6)
	for w := 0; w < nv; w++ {
		for x := 0; x < nv; x++ {
			dw, dx := tb.At(uint32(w), uint32(x))
			if math.Abs(float64(dx)-float64(w)) > 1e-4 {
				t.Fatalf("DX(%d,%d) = %v, want %d", w, x, dx, w)
			}
			if math.Abs(float64(dw)-float64(x)) > 1e-4 {
				t.Fatalf("DW(%d,%d) = %v, want %d", w, x, dw, x)
			}
		}
	}
}

// TestTablesEstimatorMetadata pins the provenance label every builder
// stamps on its tables.
func TestTablesEstimatorMetadata(t *testing.T) {
	info := mulInfo(t, "mul6u_rm4")
	cases := []struct {
		tb   *Tables
		want string
	}{
		{Difference(info.Name, info.Bits, 2, info.Mul), EstSmoothDiff},
		{STE(info.Bits), EstSTE},
		{RawDifference(info.Name, info.Bits, info.Mul), EstRawDiff},
		{FromFunc("f", info.Bits, func(w, x uint32) (float64, float64) { return 0, 0 }), "custom"},
		{ControlVariateSTE{}.Tables(info), EstCVSTE},
		{Stochastic{}.Tables(info), EstStochastic},
	}
	for i, c := range cases {
		if c.tb.Estimator != c.want {
			t.Errorf("case %d: Estimator = %q, want %q", i, c.tb.Estimator, c.want)
		}
	}
}

// TestEstimatorTablesDeterministic: every estimator family must build
// bit-identical tables on repeated calls (the GradEstimator contract).
func TestEstimatorTablesDeterministic(t *testing.T) {
	info := mulInfo(t, "mul6u_rm4")
	for _, spec := range EstimatorNames() {
		est, err := ParseEstimator(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		a, b := est.Tables(info), est.Tables(info)
		if !tablesEqual(a, b) {
			t.Errorf("%s: repeated builds differ", spec)
		}
	}
}

func ExampleParseEstimator() {
	est, _ := ParseEstimator("stochastic(seed=7,samples=8)")
	fmt.Println(est.Name())
	fmt.Println(est.Describe())
	// Output:
	// stochastic
	// stochastic(seed=7,samples=8,radius=4)
}

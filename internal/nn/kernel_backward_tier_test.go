package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
)

// Backward-tier equivalence tests, the backward analog of
// TestForwardTierBitExact: every dispatch tier an op supports is forced
// via SetBackwardTierOverride and required to match BackwardGEMMRef
// with Float32bits equality, across the full multiplier registry and
// the estimator families with distinct table structure.

// backwardTierCompare runs BackwardGEMM under the current override and
// fails on any bitwise mismatch with the reference kernels.
func backwardTierCompare(t *testing.T, op *Op, rows, outC, k int, seed int64) {
	t.Helper()
	c := equivCase{op: op, rows: rows, outC: outC, k: k}
	rng := rand.New(rand.NewSource(seed))
	xq, wq, xClip, wClip, dy := randOperands(rng, c)
	pw, px := quantParams(rng, c)

	refDW, refDX := op.BackwardGEMMRef(dy, xq, wq, xClip, wClip, rows, outC, k, pw, px)
	var s KernelScratch
	dw := make([]float32, outC*k)
	dx := make([]float32, rows*k)
	gsum := make([]float32, outC)
	for pass := 0; pass < 2; pass++ {
		op.BackwardGEMM(&s, dw, dx, gsum, dy, xq, wq, xClip, wClip, rows, outC, k, pw, px)
		for i := range dw {
			if math.Float32bits(dw[i]) != math.Float32bits(refDW[i]) {
				t.Fatalf("pass %d: dw[%d] = %v (bits %#x), ref %v (bits %#x)",
					pass, i, dw[i], math.Float32bits(dw[i]), refDW[i], math.Float32bits(refDW[i]))
			}
		}
		for i := range dx {
			if math.Float32bits(dx[i]) != math.Float32bits(refDX[i]) {
				t.Fatalf("pass %d: dx[%d] = %v (bits %#x), ref %v (bits %#x)",
					pass, i, dx[i], math.Float32bits(dx[i]), refDX[i], math.Float32bits(refDX[i]))
			}
		}
		for oc := 0; oc < outC; oc++ {
			var want float32
			for r := 0; r < rows; r++ {
				want += dy[r*outC+oc]
			}
			if math.Float32bits(gsum[oc]) != math.Float32bits(want) {
				t.Fatalf("pass %d: gsum[%d] = %v, want %v", pass, oc, gsum[oc], want)
			}
		}
	}
}

// TestBackwardTierBitExact forces BackwardGEMM onto each dispatch tier
// — via SetBackwardTierOverride, the same hook the benchmark harness
// uses — for every registry multiplier crossed with the estimator
// families whose tables differ in affine structure (ste: both tables
// affine; cvste: DX only; smoothdiff/stochastic: neither), and requires
// exact equality with the reference backward on every tier the op can
// provide. Unsupported combinations fall back (an op without affine
// tables cannot be forced onto "affine") and are skipped, so the test
// also documents which tier each family reaches. STE is additionally
// asserted to reach the affine tier — if the detector ever stops
// verifying STE tables, the flagship tier silently disappears and this
// test is the tripwire.
// denseDY stands in for a gradient the sparse gate leaves alone when a
// test asks BackwardPath which tier an op can provide.
var denseDY = []float32{1}

func TestBackwardTierBitExact(t *testing.T) {
	defer SetBackwardTierOverride("")
	ests := []string{gradient.EstSTE, gradient.EstCVSTE, gradient.EstSmoothDiff, gradient.EstStochastic}
	const rows, outC, k = 37, 4, 33
	for _, spec := range ests {
		est, err := gradient.ParseEstimator(spec)
		if err != nil {
			t.Fatalf("estimator %s: %v", spec, err)
		}
		for _, e := range appmult.Registry() {
			ops := map[string]*Op{}
			for _, tier := range []string{BwdPathAffine, BwdPathMixed, BwdPathFused, BwdPathSmall} {
				t.Run(spec+"/"+e.Mult.Name()+"/"+tier, func(t *testing.T) {
					op, ok := ops[""]
					if !ok {
						op = EstimatorOp(e.Mult, est, e.HWS)
						ops[""] = op
					}
					SetBackwardTierOverride(tier)
					defer SetBackwardTierOverride("")
					if got := op.BackwardPath(denseDY); got != tier {
						if spec == gradient.EstSTE && tier == BwdPathAffine {
							t.Fatalf("STE must support the affine tier, fell back to %s", got)
						}
						t.Skipf("op cannot provide tier %s (falls back to %s)", tier, got)
					}
					backwardTierCompare(t, op, rows, outC, k, 404)
				})
			}
		}
	}
}

// TestBackwardTierRowBoundaries sweeps row counts across the asm
// kernels' 32-row dX chunk boundary (and down to single-digit rows,
// where the dW kernels still run but the chunked dX path is entirely
// tail) on the affine and fused tiers, pinning the SIMD/tail seam
// bit-exact at every split.
func TestBackwardTierRowBoundaries(t *testing.T) {
	defer SetBackwardTierOverride("")
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	tiers := []struct {
		tier string
		op   *Op
	}{
		{BwdPathAffine, STEOp(e.Mult)},
		{BwdPathFused, DifferenceOp(e.Mult, 6)},
	}
	// k=35 exercises the dW tails too: 35 = 2*16+3 (affine blocks) and
	// 4*8+3 (gather blocks).
	const outC, k = 3, 35
	for _, tc := range tiers {
		SetBackwardTierOverride(tc.tier)
		for _, rows := range []int{1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 95, 96, 97} {
			if got := tc.op.BackwardPath(denseDY); got != tc.tier {
				t.Fatalf("tier %s: dispatch fell back to %s", tc.tier, got)
			}
			t.Run(fmt.Sprintf("%s/rows=%d", tc.tier, rows), func(t *testing.T) {
				backwardTierCompare(t, tc.op, rows, outC, k, int64(rows))
			})
		}
		SetBackwardTierOverride("")
	}
}

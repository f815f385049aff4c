package nn

import (
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/quant"
)

// These tests pin the blocked kernels (kernels.go) to the preserved
// reference kernels (kernels_ref.go) with EXACT float equality. The
// blocked kernels are constructed to be bit-identical — integer-only
// forward accumulation plus reference accumulation order in the float
// backward — so any tolerance here would only hide a broken tiling.

// equivCase is one kernel shape/op configuration. Shapes are chosen to
// be deliberately hostile to the tiling: prime-ish sizes that are not
// multiples of fwdRowTile (64), fwdKTile (256), or transTile (64), plus
// sizes that cross a tile boundary by one.
type equivCase struct {
	name             string
	op               *Op
	rows, outC, k    int
	perChannel       bool
	wantInt64Accum   bool
	skipBackwardGrad bool // behavioral forward shares the backward path
}

func equivOps(t *testing.T) []equivCase {
	t.Helper()
	lk := func(name string) appmult.Multiplier {
		e, ok := appmult.Lookup(name)
		if !ok {
			t.Fatalf("registry multiplier %s missing", name)
		}
		return e.Mult
	}
	// A synthetic 4-bit op whose LUT holds huge products: lutMax*k
	// overflows int32 even at tiny k, forcing the int64 accumulator.
	bigLUT := make([]uint32, 1<<8)
	for i := range bigLUT {
		bigLUT[i] = uint32(i) * (1 << 26)
	}
	big := &Op{Label: "big4", Bits: 4, LUT: bigLUT, Grads: gradient.STE(4)}

	return []equivCase{
		{name: "accurate2/tiny", op: STEOp(appmult.NewAccurate(2)), rows: 3, outC: 2, k: 5},
		{name: "accurate4/odd", op: STEOp(appmult.NewAccurate(4)), rows: 13, outC: 5, k: 17},
		{name: "mul6u_rm4/odd", op: DifferenceOp(lk("mul6u_rm4"), 2), rows: 67, outC: 5, k: 37},
		{name: "mul6u_rm4/perchannel", op: DifferenceOp(lk("mul6u_rm4"), 2), rows: 65, outC: 7, k: 144, perChannel: true},
		{name: "mul7u_rm6/tile+1", op: DifferenceOp(lk("mul7u_rm6"), 6), rows: 65, outC: 3, k: 257},
		{name: "mul8u_1DMU/ktile-cross", op: STEOp(lk("mul8u_1DMU")), rows: 30, outC: 4, k: 259},
		{name: "accurate8/perchannel", op: STEOp(appmult.NewAccurate(8)), rows: 129, outC: 6, k: 65, perChannel: true},
		{name: "big4/int64-accum", op: big, rows: 13, outC: 3, k: 40, wantInt64Accum: true},
		{name: "mul7u_rm6/behavioral", op: BehavioralOp(lk("mul7u_rm6"), gradient.STE(7)),
			rows: 50, outC: 4, k: 70, skipBackwardGrad: true},
	}
}

// randOperands builds random quantized operands, clip masks with a few
// set entries, and an upstream gradient with embedded exact zeros (the
// kernels skip g == 0, so the skip path must be exercised).
func randOperands(rng *rand.Rand, c equivCase) (xq, wq []uint8, xClip, wClip []bool, dy []float32) {
	levels := 1 << uint(c.op.Bits)
	xq = make([]uint8, c.rows*c.k)
	xClip = make([]bool, c.rows*c.k)
	for i := range xq {
		xq[i] = uint8(rng.Intn(levels))
		xClip[i] = rng.Intn(11) == 0
	}
	wq = make([]uint8, c.outC*c.k)
	wClip = make([]bool, c.outC*c.k)
	for i := range wq {
		wq[i] = uint8(rng.Intn(levels))
		wClip[i] = rng.Intn(7) == 0
	}
	dy = make([]float32, c.rows*c.outC)
	for i := range dy {
		if rng.Intn(5) == 0 {
			continue // exact zero
		}
		dy[i] = float32(rng.NormFloat64())
	}
	return xq, wq, xClip, wClip, dy
}

func quantParams(rng *rand.Rand, c equivCase) (pw []quant.Params, px quant.Params) {
	px = quant.Calibrate(-0.5, 1.5, c.op.Bits)
	if !c.perChannel {
		return []quant.Params{quant.Calibrate(-1, 1, c.op.Bits)}, px
	}
	pw = make([]quant.Params, c.outC)
	for oc := range pw {
		lo := -1 - float32(rng.Float64())
		hi := 0.5 + float32(rng.Float64())
		pw[oc] = quant.Calibrate(lo, hi, c.op.Bits)
	}
	return pw, px
}

// TestBlockedForwardBitExact: blocked forward == reference forward,
// bit for bit, across bit widths, quantization schemes, accumulator
// widths, and tile-hostile shapes.
func TestBlockedForwardBitExact(t *testing.T) {
	for _, c := range equivOps(t) {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			xq, wq, _, _, _ := randOperands(rng, c)
			pw, px := quantParams(rng, c)
			bias := make([]float32, c.outC)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}

			ref := c.op.ForwardGEMMRef(xq, wq, c.rows, c.outC, c.k, pw, px, bias)
			var s KernelScratch
			got := make([]float32, c.rows*c.outC)
			// Run twice through the same scratch arena: the second pass
			// must not see stale state.
			for pass := 0; pass < 2; pass++ {
				c.op.ForwardGEMM(&s, got, xq, wq, c.rows, c.outC, c.k, pw, px, bias)
				for i := range got {
					if got[i] != ref.Data[i] {
						t.Fatalf("pass %d: forward[%d] = %v, ref %v", pass, i, got[i], ref.Data[i])
					}
				}
			}
			if c.wantInt64Accum {
				if fits := uint64(c.op.lutMax)*uint64(c.k) <= 1<<31-1; fits {
					t.Fatal("case meant to exercise the int64 accumulator fits in int32")
				}
			}
		})
	}
}

// TestBlockedBackwardBitExact: tiered backward == reference backward,
// bit for bit, including clip masks and the folded bias gradient, on
// both sides of the dispatch gate for every case: the mostly-nonzero
// gradient auto-dispatches to a big tier, the same gradient is forced
// onto the small path, and a gradient thinned to one nonzero in eight
// must reach the small path by itself.
func TestBlockedBackwardBitExact(t *testing.T) {
	defer SetBackwardTierOverride("")
	for _, mode := range []struct {
		name, override string
		sparse         bool
	}{
		{"blocked", "", false},
		{"small", BwdPathSmall, false},
		{"sparse", "", true},
	} {
		for _, c := range equivOps(t) {
			if c.skipBackwardGrad {
				continue
			}
			t.Run(mode.name+"/"+c.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(202))
				xq, wq, xClip, wClip, dy := randOperands(rng, c)
				pw, px := quantParams(rng, c)
				if mode.sparse {
					for i := range dy {
						if i%8 != 0 {
							dy[i] = 0
						}
					}
				}
				SetBackwardTierOverride(mode.override)
				defer SetBackwardTierOverride("")
				if got := c.op.BackwardPath(dy); (got == BwdPathSmall) != (mode.name != "blocked") {
					t.Fatalf("dispatch took %q", got)
				}

				refDW, refDX := c.op.BackwardGEMMRef(dy, xq, wq, xClip, wClip, c.rows, c.outC, c.k, pw, px)
				var s KernelScratch
				dw := make([]float32, c.outC*c.k)
				dx := make([]float32, c.rows*c.k)
				gsum := make([]float32, c.outC)
				for pass := 0; pass < 2; pass++ {
					c.op.BackwardGEMM(&s, dw, dx, gsum, dy, xq, wq, xClip, wClip, c.rows, c.outC, c.k, pw, px)
					for i := range dw {
						if dw[i] != refDW[i] {
							t.Fatalf("pass %d: dw[%d] = %v, ref %v", pass, i, dw[i], refDW[i])
						}
					}
					for i := range dx {
						if dx[i] != refDX[i] {
							t.Fatalf("pass %d: dx[%d] = %v, ref %v", pass, i, dx[i], refDX[i])
						}
					}
					for oc := 0; oc < c.outC; oc++ {
						var want float32
						for r := 0; r < c.rows; r++ {
							want += dy[r*c.outC+oc]
						}
						if gsum[oc] != want {
							t.Fatalf("pass %d: gsum[%d] = %v, want %v", pass, oc, gsum[oc], want)
						}
					}
				}
			})
		}
	}
}

// TestForwardTierBitExact forces ForwardGEMM onto each dispatch tier a
// case supports — via forwardTierOverride, the same hook the benchmark
// harness uses — and requires exact equality with the reference forward
// on every tier, then runs the backward pass under the same override to
// prove the tiers leave no state behind that the backward kernels
// could trip over. Tiers the op/host cannot provide (no AVX2, products
// beyond uint16, or vice versa) are reported and skipped, so the test
// also documents which tiers each registry family reaches.
func TestForwardTierBitExact(t *testing.T) {
	defer func() { forwardTierOverride = "" }()
	for _, tier := range []string{FwdPathArith, FwdPathPacked16, FwdPathBlocked} {
		for _, c := range equivOps(t) {
			t.Run(tier+"/"+c.name, func(t *testing.T) {
				forwardTierOverride = ""
				if c.op.ForwardPath(c.rows, c.k) == FwdPathBehavioral {
					t.Skip("behavioral op has no LUT tiers")
				}
				forwardTierOverride = tier
				if got := c.op.ForwardPath(c.rows, c.k); got != tier {
					if tier == FwdPathArith && !hasGemmAsm {
						t.Skipf("host has no AVX2; tier fell back to %s", got)
					}
					t.Skipf("op cannot provide tier %s (falls back to %s)", tier, got)
				}

				rng := rand.New(rand.NewSource(303))
				xq, wq, xClip, wClip, dy := randOperands(rng, c)
				pw, px := quantParams(rng, c)
				bias := make([]float32, c.outC)
				for i := range bias {
					bias[i] = float32(rng.NormFloat64())
				}

				ref := c.op.ForwardGEMMRef(xq, wq, c.rows, c.outC, c.k, pw, px, bias)
				var s KernelScratch
				got := make([]float32, c.rows*c.outC)
				for pass := 0; pass < 2; pass++ {
					c.op.ForwardGEMM(&s, got, xq, wq, c.rows, c.outC, c.k, pw, px, bias)
					for i := range got {
						if got[i] != ref.Data[i] {
							t.Fatalf("pass %d: forward[%d] = %v, ref %v", pass, i, got[i], ref.Data[i])
						}
					}
				}

				refDW, refDX := c.op.BackwardGEMMRef(dy, xq, wq, xClip, wClip, c.rows, c.outC, c.k, pw, px)
				dw := make([]float32, c.outC*c.k)
				dx := make([]float32, c.rows*c.k)
				gsum := make([]float32, c.outC)
				c.op.BackwardGEMM(&s, dw, dx, gsum, dy, xq, wq, xClip, wClip, c.rows, c.outC, c.k, pw, px)
				for i := range dw {
					if dw[i] != refDW[i] {
						t.Fatalf("dw[%d] = %v, ref %v", i, dw[i], refDW[i])
					}
				}
				for i := range dx {
					if dx[i] != refDX[i] {
						t.Fatalf("dx[%d] = %v, ref %v", i, dx[i], refDX[i])
					}
				}
			})
		}
	}
}

// TestArithTierSmallRows pins the rows >= 32 SIMD gate together with
// the scalar tail: shapes straddling the 32-row chunk boundary must be
// bit-exact whether the asm kernels run over none, some, or all rows.
func TestArithTierSmallRows(t *testing.T) {
	if !hasGemmAsm {
		t.Skip("host has no AVX2")
	}
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	op := STEOp(e.Mult)
	defer func() { forwardTierOverride = "" }()
	forwardTierOverride = FwdPathArith
	for _, rows := range []int{32, 33, 63, 64, 65, 95, 96} {
		c := equivCase{op: op, rows: rows, outC: 3, k: 51}
		if got := op.ForwardPath(rows, c.k); got != FwdPathArith {
			t.Fatalf("rows=%d: path %s, want arith", rows, got)
		}
		rng := rand.New(rand.NewSource(int64(rows)))
		xq, wq, _, _, _ := randOperands(rng, c)
		pw, px := quantParams(rng, c)
		bias := make([]float32, c.outC)
		ref := op.ForwardGEMMRef(xq, wq, rows, c.outC, c.k, pw, px, bias)
		got := make([]float32, rows*c.outC)
		op.ForwardGEMM(nil, got, xq, wq, rows, c.outC, c.k, pw, px, bias)
		for i := range got {
			if got[i] != ref.Data[i] {
				t.Fatalf("rows=%d: forward[%d] = %v, ref %v", rows, i, got[i], ref.Data[i])
			}
		}
	}
}

// TestBehavioralMatchesLUTForward: an Op simulated behaviorally and the
// same multiplier through its LUT must produce identical outputs — the
// two forward-simulation styles the paper compares are functionally
// equivalent.
func TestBehavioralMatchesLUTForward(t *testing.T) {
	e, ok := appmult.Lookup("mul6u_rm4")
	if !ok {
		t.Fatal("mul6u_rm4 missing")
	}
	lutOp := STEOp(e.Mult)
	behOp := BehavioralOp(e.Mult, gradient.STE(6))
	rows, outC, k := 33, 5, 70
	rng := rand.New(rand.NewSource(7))
	xq := make([]uint8, rows*k)
	wq := make([]uint8, outC*k)
	for i := range xq {
		xq[i] = uint8(rng.Intn(64))
	}
	for i := range wq {
		wq[i] = uint8(rng.Intn(64))
	}
	pw := []quant.Params{quant.Calibrate(-1, 1, 6)}
	px := quant.Calibrate(0, 2, 6)
	bias := make([]float32, outC)

	a := make([]float32, rows*outC)
	b := make([]float32, rows*outC)
	lutOp.ForwardGEMM(nil, a, xq, wq, rows, outC, k, pw, px, bias)
	behOp.ForwardGEMM(nil, b, xq, wq, rows, outC, k, pw, px, bias)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("LUT and behavioral forwards diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

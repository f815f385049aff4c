package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/quant"
)

// These tests pin every row of the dispatch ladders (tiers.go) to the
// preserved reference kernels (kernels_ref.go) with Float32bits
// equality. The tiers are constructed to be bit-identical —
// integer-only forward accumulation plus reference accumulation order
// in the float backward — so any tolerance here would only hide a
// broken tiling.

// equivCase is one op/shape configuration of the equivalence table.
type equivCase struct {
	name           string
	op             *Op
	rows, outC, k  int
	perChannel     bool
	wantInt64Accum bool
	// wantArith/wantAffine: automatic dispatch must take the case to one
	// of the arith forward rows (packed16 without AVX2) / the op must
	// provide the affine backward row. If the verifiers ever stop
	// accepting the mask family or STE's tables, the flagship tiers
	// silently disappear and these flags are the tripwire.
	wantArith, wantAffine bool
	// saturated puts every operand at the top level: the products the
	// arith kernels' lane budgets are sized for, on every lane at once.
	saturated bool
	// fwdOnly skips the backward-pin subtests (the forward ones still
	// follow up with an automatic backward); sweepOnly skips the
	// forward-pin ones and the thinned gradient — the case is there for
	// the backward sweep kernels at its shape, which cost per row
	// whatever dy holds.
	fwdOnly, sweepOnly bool
	// special, when set, replaces one dy entry in six (see glueFlavours).
	special []float32
}

func lookupMult(t testing.TB, name string) appmult.Multiplier {
	t.Helper()
	e, ok := appmult.Lookup(name)
	if !ok {
		t.Fatalf("registry multiplier %s missing", name)
	}
	return e.Mult
}

// bwdExemplar returns an op over mul7u_rm6 whose dense upstream
// gradients auto-dispatch to the given backward label, and whether
// reaching the label needs a sparse gradient instead.
func bwdExemplar(t testing.TB, label string) (op *Op, sparse bool) {
	t.Helper()
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	switch label {
	case BwdPathSmall:
		return DifferenceOp(e.Mult, 6), true
	case BwdPathAffine:
		return STEOp(e.Mult), false
	case BwdPathFused:
		return DifferenceOp(e.Mult, 6), false
	case BwdPathMixed:
		cvste, err := gradient.ParseEstimator(gradient.EstCVSTE)
		if err != nil {
			t.Fatal(err)
		}
		return EstimatorOp(e.Mult, cvste, e.HWS), false
	}
	t.Fatalf("backward tier %q has no exemplar op: add one", label)
	return nil, false
}

// dwAffineOp returns an op over m's LUT whose DW table is one affine
// function of x on every row, with A != 1 and B != 0 (a dropped term
// shows), and whose DX table is random, so the dW sweep takes the
// affine row and the dX sweep the fused one. The registry pairs the two
// rows only the other way round (cvste: dW fused, dX affine).
func dwAffineOp(t testing.TB, m appmult.Multiplier) *Op {
	t.Helper()
	const a, b = -0.625, 1.75
	rng := rand.New(rand.NewSource(int64(m.Bits())))
	op := NewOp(m, gradient.FromFunc("dwaffine", m.Bits(), func(w, x uint32) (float64, float64) {
		return float64(float32(a*float32(x)) + b), rng.NormFloat64()
	}))
	op.Label = m.Name()
	op.ensurePadded()
	if op.dwAff == nil || op.dxAff != nil {
		t.Fatalf("%s: tables do not reach (dW affine, dX fused)", op.Label)
	}
	return op
}

// fwdLabels and bwdLabels enumerate the ladders of tiers.go; bwdLabels
// includes the derived mixed label.
func fwdLabels() (labels []string) {
	for i := range fwdTiers {
		labels = append(labels, fwdTiers[i].label)
	}
	return labels
}

func bwdLabels() []string {
	labels := []string{bwdSmall.label}
	for i := range bwdSweeps {
		labels = append(labels, bwdSweeps[i].label)
	}
	return append(labels, BwdPathMixed)
}

// equivCases is the shape table every tier runs over.
func equivCases(t *testing.T) []equivCase {
	t.Helper()
	// A synthetic op whose products reach the 16-bit ceiling: at
	// k = 32800 lutMax*k overflows int32, forcing the int64 accumulator.
	bigLUT := make([]uint32, 1<<8)
	for i := range bigLUT {
		bigLUT[i] = uint32(i) * 257
	}
	big := &Op{Label: "big4", Bits: 4, LUT: bigLUT, Grads: gradient.STE(4)}

	// Shapes deliberately hostile to the tiling: prime-ish sizes that
	// are not multiples of fwdRowTile (64), fwdKTile (256), or transTile
	// (64), plus sizes that cross a tile boundary by one.
	cases := []equivCase{
		{name: "accurate2/tiny", op: STEOp(appmult.NewAccurate(2)), rows: 3, outC: 2, k: 5},
		{name: "accurate4/odd", op: STEOp(appmult.NewAccurate(4)), rows: 13, outC: 5, k: 17},
		{name: "mul6u_rm4/odd", op: DifferenceOp(lookupMult(t, "mul6u_rm4"), 2), rows: 67, outC: 5, k: 37},
		{name: "mul6u_rm4/perchannel", op: DifferenceOp(lookupMult(t, "mul6u_rm4"), 2), rows: 65, outC: 7, k: 144, perChannel: true},
		{name: "mul7u_rm6/tile+1", op: DifferenceOp(lookupMult(t, "mul7u_rm6"), 6), rows: 65, outC: 3, k: 257},
		{name: "mul8u_1DMU/ktile-cross", op: STEOp(lookupMult(t, "mul8u_1DMU")), rows: 30, outC: 4, k: 259},
		{name: "accurate8/perchannel", op: STEOp(appmult.NewAccurate(8)), rows: 129, outC: 6, k: 65, perChannel: true},
		{name: "big4/int64-accum", op: big, rows: 13, outC: 3, k: 32800, wantInt64Accum: true},
		{name: "mul7u_rm6/behavioral", op: BehavioralOp(lookupMult(t, "mul7u_rm6"), gradient.STE(7)), rows: 50, outC: 4, k: 70},
	}

	// The full multiplier registry crossed with the estimator families
	// whose tables differ in affine structure (ste: both tables affine;
	// cvste: DX only; smoothdiff/stochastic: neither).
	for _, spec := range []string{gradient.EstSTE, gradient.EstCVSTE, gradient.EstSmoothDiff, gradient.EstStochastic} {
		est, err := gradient.ParseEstimator(spec)
		if err != nil {
			t.Fatalf("estimator %s: %v", spec, err)
		}
		for _, e := range appmult.Registry() {
			op := EstimatorOp(e.Mult, est, e.HWS)
			cases = append(cases, equivCase{name: spec + "/" + e.Mult.Name(), op: op,
				rows: 37, outC: 4, k: 33, wantAffine: spec == gradient.EstSTE})
			// ... and down the diagonal of sweepShapes below.
			for i, rows := range sweepRows {
				outC, k := sweepOutC[i], sweepK[i]
				cases = append(cases, equivCase{name: fmt.Sprintf("%s/%s/rows=%d/outC=%d/k=%d", spec, e.Mult.Name(), rows, outC, k),
					op: op, rows: rows, outC: outC, k: k, sweepOnly: true, wantAffine: spec == gradient.EstSTE})
			}
		}
	}

	// The mixed label's other half: dW on the affine row, dX on the
	// fused one (dwAffineOp), at the same shapes as the registry above.
	for _, bits := range []int{6, 7, 8} {
		op := dwAffineOp(t, appmult.NewAccurate(bits))
		cases = append(cases, equivCase{name: "dwaffine/" + op.Label, op: op, rows: 37, outC: 4, k: 33})
		for i, rows := range sweepRows {
			outC, k := sweepOutC[i], sweepK[i]
			cases = append(cases, equivCase{name: fmt.Sprintf("dwaffine/%s/rows=%d/outC=%d/k=%d", op.Label, rows, outC, k),
				op: op, rows: rows, outC: outC, k: k, sweepOnly: true})
		}
	}

	for i := range bwdSweeps {
		label := bwdSweeps[i].label
		op, _ := bwdExemplar(t, label)
		affine := label == BwdPathAffine
		// Row counts across the asm kernels' 32-row dX chunk boundary and
		// down to single-digit rows, where the chunked dX path is entirely
		// tail. k=35 exercises the dW tails too: 35 = 2*16+3 (affine
		// blocks) and 4*8+3 (gather blocks).
		for _, rows := range []int{1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 95, 96, 97} {
			cases = append(cases, equivCase{name: fmt.Sprintf("%s/rows=%d", label, rows), op: op,
				rows: rows, outC: 3, k: 35, wantAffine: affine})
		}
		// Output-channel counts at, off and below the dW kernels' eight
		// lanes (below, the spare lanes are zero-padded) and even, odd and
		// single-column k, where the column-pair calls repeat a column and
		// the lane groups overlap.
		for _, outC := range []int{7, 8, 9, 12, 16, 24, 31} {
			for _, k := range []int{1, 2, 3, 16, 27, 70} {
				cases = append(cases, equivCase{name: fmt.Sprintf("%s/outC=%d/k=%d", label, outC, k), op: op,
					rows: 45, outC: outC, k: k, wantAffine: affine})
			}
		}
		// The sweep kernels' register plans: the dX kernels keep a 32-row
		// chunk's operand vectors in registers across the oc loop, so one,
		// two and three chunks with and without a scalar tail behind them;
		// channel counts with spare dW lanes, one lane group and an
		// overlapping last eight; and column counts whose ParallelRowsOn
		// blocks are odd (the pair calls repeat a column; without asm they
		// reach bwdDXPairs' odd-column tail).
		for _, rows := range sweepRows {
			for _, outC := range sweepOutC {
				for _, k := range sweepK {
					cases = append(cases, equivCase{name: fmt.Sprintf("%s/rows=%d/outC=%d/k=%d", label, rows, outC, k), op: op,
						rows: rows, outC: outC, k: k, sweepOnly: true, wantAffine: affine})
				}
			}
		}
		// Upstream gradients holding -0, denormals, ±Inf and NaN: the
		// kernels multiply the entries the reference skips (±0) and the
		// lanes must carry the rest like the scalar expression does.
		for _, f := range glueFlavours[1:] {
			cases = append(cases, equivCase{name: fmt.Sprintf("%s/dy=%s", label, f.name), op: op,
				rows: 95, outC: 9, k: 17, sweepOnly: true, wantAffine: affine, special: f.special})
		}
	}

	// The fused row's dW crossover at each operand width the registry
	// has: 2^B - 1 rows gather, 2^B and 2^B + 1 read level tables
	// (bwdDWTables), over channel counts below, off and past the lane
	// width and a k whose blocks end in short groups of table columns.
	for _, name := range []string{"mul6u_rm4", "mul7u_rm6", "mul8u_rm8"} {
		e, _ := appmult.Lookup(name)
		op := DifferenceOp(lookupMult(t, name), e.HWS)
		for _, rows := range []int{1<<op.Bits - 1, 1 << op.Bits, 1<<op.Bits + 1} {
			for _, outC := range []int{1, 7, 9, 17} {
				cases = append(cases, equivCase{name: fmt.Sprintf("dw-tables/%s/rows=%d/outC=%d", name, rows, outC), op: op,
					rows: rows, outC: outC, k: 11, sweepOnly: true})
			}
		}
	}

	// The arith row's rows >= 32 SIMD gate together with its scalar tail:
	// the asm kernels run over none, some, or all rows.
	ste, _ := bwdExemplar(t, BwdPathAffine)
	for _, rows := range []int{32, 33, 63, 64, 65, 95, 96} {
		cases = append(cases, equivCase{name: fmt.Sprintf("arith/rows=%d", rows), op: ste,
			rows: rows, outC: 3, k: 51, wantArith: true, wantAffine: true})
	}

	// The skinny row (rows < 32 <= outC) over the whole registry, so both
	// kernel flavours and every mask family: row counts from one to just
	// under a chunk, channel counts of one chunk, one chunk plus a scalar
	// tail and two chunks, even and odd k (the pair kernel's virtual
	// column), random and saturated operands. Ops without a strip form
	// (mul8u_1DMU) must stay on packed16.
	for _, e := range appmult.Registry() {
		_, masked := e.Mult.(*appmult.Masked)
		_, accurate := e.Mult.(*appmult.Accurate)
		op := STEOp(e.Mult)
		for _, rows := range []int{1, 4, 16, 31} {
			for _, outC := range []int{32, 40, 64} {
				for _, k := range []int{26, 27} {
					for _, sat := range []bool{false, true} {
						cases = append(cases, equivCase{
							name: fmt.Sprintf("skinny/%s/rows=%d/outC=%d/k=%d/saturated=%v", e.Mult.Name(), rows, outC, k, sat),
							op:   op, rows: rows, outC: outC, k: k, saturated: sat, fwdOnly: true,
							wantArith: masked || accurate, wantAffine: true})
					}
				}
			}
		}
	}
	// ... and across k tiles: two full ones and an odd remainder, on a
	// pair-kernel op and a word-kernel op.
	for _, name := range []string{"mul7u_rm6", "mul8u_rm8"} {
		for _, sat := range []bool{false, true} {
			cases = append(cases, equivCase{name: fmt.Sprintf("skinny/%s/ktile-cross/saturated=%v", name, sat),
				op: STEOp(lookupMult(t, name)), rows: 5, outC: 40, k: 2*fwdKTile + 3, saturated: sat, fwdOnly: true,
				wantArith: true, wantAffine: true})
		}
	}
	return cases
}

// sweepRows x sweepOutC x sweepK is the shape grid of the backward sweep
// kernels' register plans (see equivCases).
var (
	sweepRows = []int{32, 33, 64, 95, 96}
	sweepOutC = []int{1, 7, 8, 9, 17}
	sweepK    = []int{1, 2, 15, 17, 72}
)

// randOperands builds random quantized operands, clip masks with a few
// set entries, and an upstream gradient with embedded exact zeros (the
// kernels skip g == 0, so the skip path must be exercised).
func randOperands(rng *rand.Rand, c equivCase) (xq, wq []uint8, xClip, wClip []bool, dy []float32) {
	levels := 1 << uint(c.op.Bits)
	xq = make([]uint8, c.rows*c.k)
	xClip = make([]bool, c.rows*c.k)
	level := func() uint8 {
		if c.saturated {
			return uint8(levels - 1)
		}
		return uint8(rng.Intn(levels))
	}
	for i := range xq {
		xq[i] = level()
		xClip[i] = rng.Intn(11) == 0
	}
	wq = make([]uint8, c.outC*c.k)
	wClip = make([]bool, c.outC*c.k)
	for i := range wq {
		wq[i] = level()
		wClip[i] = rng.Intn(7) == 0
	}
	dy = make([]float32, c.rows*c.outC)
	for i := range dy {
		if rng.Intn(5) == 0 {
			continue // exact zero
		}
		dy[i] = float32(rng.NormFloat64())
		if len(c.special) > 0 && rng.Intn(6) == 0 {
			dy[i] = c.special[rng.Intn(len(c.special))]
		}
	}
	return xq, wq, xClip, wClip, dy
}

// kMajor returns the (k x rows) layout of the row-major (rows x k)
// operand xq and of its clip flags xClip (nil stays nil): the operands
// ForwardGEMM and BackwardGEMM take, where the reference kernels take
// the row-major ones.
func kMajor(xq []uint8, xClip []bool, rows, k int) ([]uint8, []bool) {
	xT := make([]uint8, len(xq))
	transposeU8Tiles(xT, xq, rows, k, rows, 0, k)
	var clipT []bool
	if xClip != nil {
		clipT = make([]bool, len(xClip))
		for r := 0; r < rows; r++ {
			for i := 0; i < k; i++ {
				clipT[i*rows+r] = xClip[r*k+i]
			}
		}
	}
	return xT, clipT
}

// rowMajor maps the k-major (k x rows) input gradient dxT back to the
// (rows x k) layout of BackwardGEMMRef's, by index.
func rowMajor(dxT []float32, rows, k int) []float32 {
	dx := make([]float32, len(dxT))
	for i := 0; i < k; i++ {
		for r := 0; r < rows; r++ {
			dx[r*k+i] = dxT[i*rows+r]
		}
	}
	return dx
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

// pinName names a pin in a subtest path.
func pinName(pin string) string {
	if pin == "" {
		return "auto"
	}
	return pin
}

// TestTierEquivalence runs every case of equivCases on every row of
// both ladders — automatic dispatch, then each row pinned through
// Op.Pinned, the hook the benchmark harness uses — and requires
// Float32bits equality with ForwardGEMMRef / BackwardGEMMRef, clip
// masks and the folded bias gradient included: the GEMMs run on the
// k-major transposes of the references' row-major operands, and their
// k-major input gradient is compared by index. A row the op, host or
// shape cannot provide is reported and skipped, so the test also
// documents which tiers each registry family reaches. Every GEMM runs
// twice through one scratch arena (the second pass must not see stale
// state), the forward cases follow up with an automatic backward in the
// same arena, and the backward cases run on a mostly-nonzero gradient
// and on one thinned to one nonzero in eight, and automatic dispatch
// must send exactly the gradients with at most a quarter nonzero to the
// small row by itself.
func TestTierEquivalence(t *testing.T) {
	for ci, c := range equivCases(t) {
		rng := rand.New(rand.NewSource(int64(ci)))
		xq, wq, xClip, wClip, dense := randOperands(rng, c)
		xT, xClipT := kMajor(xq, xClip, c.rows, c.k)
		pw, px := quantParams(rng, c)
		bias := make([]float32, c.outC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		sparse := make([]float32, len(dense))
		for i := 0; i < len(dense); i += 8 {
			sparse[i] = dense[i]
		}
		ref := c.op.ForwardGEMMRef(xq, wq, c.rows, c.outC, c.k, pw, px, bias)

		// backward runs op's BackwardGEMM twice in s and compares it
		// with the reference.
		backward := func(t *testing.T, op *Op, s *KernelScratch, dy []float32) {
			t.Helper()
			refDW, refDX := c.op.BackwardGEMMRef(dy, xq, wq, xClip, wClip, c.rows, c.outC, c.k, pw, px)
			wantSum := make([]float32, c.outC)
			for r := 0; r < c.rows; r++ {
				for oc := range wantSum {
					wantSum[oc] += dy[r*c.outC+oc]
				}
			}
			dw := make([]float32, c.outC*c.k)
			dxT := make([]float32, c.k*c.rows)
			gsum := make([]float32, c.outC)
			for pass := 0; pass < 2; pass++ {
				op.BackwardGEMM(s, dw, dxT, gsum, dy, xT, wq, xClipT, wClip, c.rows, c.outC, c.k, pw, px)
				requireSameBits(t, fmt.Sprintf("pass %d: dw", pass), dw, refDW)
				requireSameBits(t, fmt.Sprintf("pass %d: dx", pass), rowMajor(dxT, c.rows, c.k), refDX)
				requireSameBits(t, fmt.Sprintf("pass %d: gsum", pass), gsum, wantSum)
			}
		}

		fwdPins := append([]string{""}, fwdLabels()...)
		if c.sweepOnly {
			fwdPins = nil
		}
		for _, pin := range fwdPins {
			t.Run("fwd/"+pinName(pin)+"/"+c.name, func(t *testing.T) {
				op := c.op.Pinned(pin, "")
				path := op.ForwardPath(c.rows, c.outC, c.k)
				if c.wantArith && pin == "" {
					want := FwdPathPacked16
					if hasGemmAsm {
						want = FwdPathArith
						if c.rows < arithLanes {
							want = FwdPathArithSkinny
						}
					}
					if path != want {
						t.Fatalf("automatic dispatch took the %s row, want %s", path, want)
					}
				}
				if pin != "" && path != pin {
					t.Skipf("op, host or shape cannot provide %s (falls back to %s)", pin, path)
				}
				if c.wantInt64Accum && op.fits32(c.k) {
					t.Fatal("case meant to exercise the int64 accumulator fits in int32")
				}
				var s KernelScratch
				got := make([]float32, c.rows*c.outC)
				for pass := 0; pass < 2; pass++ {
					op.ForwardGEMM(&s, got, xT, wq, c.rows, c.outC, c.k, pw, px, bias)
					requireSameBits(t, fmt.Sprintf("pass %d: forward", pass), got, ref.Data)
				}
				backward(t, op, &s, dense)
			})
		}
		if c.fwdOnly {
			continue
		}
		for _, pin := range append([]string{""}, bwdLabels()...) {
			op := c.op.Pinned("", pin)
			for _, g := range []struct {
				density string
				dy      []float32
			}{{"dense", dense}, {"1in8", sparse}} {
				if c.sweepOnly && g.density != "dense" {
					continue
				}
				t.Run("bwd/"+pinName(pin)+"/"+g.density+"/"+c.name, func(t *testing.T) {
					nonzero := 0
					for _, v := range g.dy {
						if v != 0 {
							nonzero++
						}
					}
					switch got := op.BackwardPath(g.dy); {
					case pin == "" && (got == BwdPathSmall) != (4*nonzero <= len(g.dy)):
						t.Fatalf("automatic dispatch sent a gradient with %d of %d entries nonzero to %q", nonzero, len(g.dy), got)
					case pin != "" && got != pin:
						if c.wantAffine && pin == BwdPathAffine {
							t.Fatalf("op must provide the affine row, fell back to %s", got)
						}
						t.Skipf("op cannot provide %s (falls back to %s)", pin, got)
					}
					backward(t, op, &KernelScratch{}, g.dy)
				})
			}
		}
	}
}

// TestOversizedProductPanics: a LUT entry beyond the 16-bit product of
// two 8-bit operands is rejected at first kernel use, naming the entry.
func TestOversizedProductPanics(t *testing.T) {
	lut := make([]uint32, 1<<8)
	lut[0x2B] = 0x10000
	op := &Op{Label: "oversized", Bits: 4, LUT: lut, Grads: gradient.STE(4)}
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		op.ForwardGEMM(nil, make([]float32, 1), []uint8{1}, []uint8{1}, 1, 1, 1,
			[]quant.Params{quant.Calibrate(-1, 1, 4)}, quant.Calibrate(0, 1, 4), []float32{0})
		return
	}()
	for _, want := range []string{"oversized", "LUT[43]", "w=2", "x=11", "65536"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("first kernel use panicked with %q, which does not name %s", msg, want)
		}
	}
}

// TestTierLabelsAreTheDispatchMetric: the `path` values registered
// under nn_kernel_dispatch_total are exactly the labels of the ladders
// in tiers.go plus "ref" — a tier cannot run uncounted, and no series
// outlives its tier.
func TestTierLabelsAreTheDispatchMetric(t *testing.T) {
	want := map[string]bool{"forward/ref": true, "backward/ref": true}
	for _, l := range fwdLabels() {
		want["forward/"+l] = true
	}
	for _, l := range bwdLabels() {
		want["backward/"+l] = true
	}
	got := map[string]bool{}
	for _, fam := range obs.Default().Snapshot() {
		if fam.Name != "nn_kernel_dispatch_total" {
			continue
		}
		for _, s := range fam.Samples {
			lv := map[string]string{}
			for i := 0; i+1 < len(s.Labels); i += 2 {
				lv[s.Labels[i]] = s.Labels[i+1]
			}
			got[lv["kernel"]+"/"+lv["path"]] = true
		}
	}
	keys := func(m map[string]bool) []string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if g, w := fmt.Sprint(keys(got)), fmt.Sprint(keys(want)); g != w {
		t.Fatalf("nn_kernel_dispatch_total series %s, tier table %s", g, w)
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
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("LUT and behavioral forwards diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBackwardRowTraffic pins the backward row each sweep of every
// registry op takes under every estimator, so a change to a gradient
// table or to the affine row's forms (Op.dwAff) cannot move a workload's
// tier unnoticed: STE reads the affine row on both sweeps; cvste's DX is
// constant in x; on the accurate multipliers cvste's and stochastic's
// tables are STE's; every other table — smoothdiff's and rawdiff's DW on
// the accurate multipliers are affine, but one row per weight level — is
// fused.
func TestBackwardRowTraffic(t *testing.T) {
	for _, spec := range gradient.EstimatorNames() {
		est, err := gradient.ParseEstimator(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range appmult.Registry() {
			op := EstimatorOp(e.Mult, est, e.HWS)
			op.ensurePadded()
			accurate := strings.HasSuffix(e.Mult.Name(), "_acc")
			want := [2]string{BwdPathFused, BwdPathFused}
			switch {
			case spec == gradient.EstSTE, accurate && (spec == gradient.EstCVSTE || spec == gradient.EstStochastic):
				want = [2]string{BwdPathAffine, BwdPathAffine}
			case spec == gradient.EstCVSTE:
				want = [2]string{BwdPathFused, BwdPathAffine}
			}
			if got := [2]string{op.sweepTier(op.dwAff).label, op.sweepTier(op.dxAff).label}; got != want {
				t.Errorf("%s: (dW, dX) rows %v, want %v", op.Label, got, want)
			}
		}
	}
}

// TestSparseGradCountsTheLists: when the small row's gate passes, the
// count it returns is what nonzeros.build lists — the size the build
// takes from it instead of counting again — over -0 entries (zero),
// NaN (nonzero) and gradients at and one past a quarter nonzero.
func TestSparseGradCountsTheLists(t *testing.T) {
	const rows, outC, hw = 48, 5, 12
	rng := rand.New(rand.NewSource(5))
	for _, nz := range []int{0, 1, rows * outC / 8, rows*outC/4 - 1, rows * outC / 4, rows*outC/4 + 1} {
		dy := make([]float32, rows*outC)
		for i := range dy {
			if rng.Intn(2) == 0 {
				dy[i] = float32(math.Copysign(0, -1))
			}
		}
		for _, i := range rng.Perm(len(dy))[:nz] {
			dy[i] = float32(rng.NormFloat64())
			if rng.Intn(9) == 0 {
				dy[i] = float32(math.NaN())
			}
		}
		n, ok := sparseGrad(dy)
		if ok != (4*nz <= len(dy)) {
			t.Fatalf("%d of %d nonzero: gate says %v", nz, len(dy), ok)
		}
		if !ok {
			continue
		}
		if n != nz {
			t.Fatalf("%d of %d nonzero: gate counted %d", nz, len(dy), n)
		}
		var l nonzeros
		l.build(nil, dy, []int{0, rows}, outC, hw, n)
		if l.off[outC] != nz || len(l.r) != nz || len(l.g) != nz {
			t.Fatalf("%d nonzero: lists hold %d (r %d, g %d)", nz, l.off[outC], len(l.r), len(l.g))
		}
	}
}

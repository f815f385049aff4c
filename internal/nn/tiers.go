package nn

import (
	"math"

	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/tensor"
)

// The GEMM dispatch ladders. Every tier is declared here exactly once:
// its name (also its `path` label under nn_kernel_dispatch_total), the
// predicate that makes it eligible, its dispatch counter and the kernel
// it runs. forwardT and backwardT take the first eligible row, in the
// order written; the tier-equivalence tests, cmd/benchkernels' forced
// rows and DESIGN.md §3(b)/(c) enumerate the same rows. A new operand
// width or signedness is a new row, not a new kernel family.
//
// A pin (Op.Pinned) makes a ladder prefer the named row over the rows
// above it whenever that row is eligible, so a harness can time — and a
// test can prove bit-exact — a tier auto-dispatch would not pick.

// Tier names, in ladder order. BwdPathMixed is derived, not dispatched
// on: it labels a GEMM whose two sweeps ran on different rows (cvste:
// DX affine, DW fused).
const (
	FwdPathArith       = "arith"        // closed-form strip arithmetic in AVX2 (arith.go, kernels_arith.go)
	FwdPathArithSkinny = "arith_skinny" // the same kernels with their lanes on output channels, for GEMMs under 32 rows
	FwdPathPacked16    = "packed16"     // gather from hoisted LUT rows packed as uint16
	FwdPathBehavioral  = "behavioral"   // MulFn per MAC, for an op without a LUT

	BwdPathSmall  = "small"  // pays per nonzero upstream gradient (bwdSmallRun)
	BwdPathAffine = "affine" // float-GEMM sweeps: DW one affine function of x on every row, DX constant in x
	BwdPathFused  = "fused"  // gather from the padded gradient-table rows
	BwdPathMixed  = "mixed"
)

// hasGemmAsm reports whether the AVX2 kernels (gemm_*_amd64.s) are
// usable: the tiers built on them fall back to the pure-Go rows when
// false.
var hasGemmAsm = tensor.HasAVX2

// fwdTier is one row of the forward ladder.
type fwdTier struct {
	label string
	// ok reports whether the row can run op (padded) on a GEMM of rows
	// rows, outC output channels and reduction depth k.
	ok    func(op *Op, rows, outC, k int) bool
	count *obs.Counter
	// setup, where present, readies the state the row's tiles share: the
	// per-call constants and, on the first GEMM of a weight version, the
	// row's own form of the weight levels (weightSide).
	setup func(t *fwdTileRun)
	// accum adds the (nK x nR) operand tile tl.xt, at k offset kb, into
	// the accumulators of tl (acc32 when t.use32, else acc64).
	accum func(t *fwdTileRun, tl *fwdTile, nR, kb, nK int)
	// fit, where present, sizes the tile buffers only this row uses for
	// an (nK x nR) operand tile.
	fit func(t *fwdTileRun, tl *fwdTile, nR, nK int)
}

var fwdTiers = [...]fwdTier{
	{
		label: FwdPathArith,
		// The multiplier's partial-product mask decomposed into strips
		// that reproduce the LUT over the whole operand grid (op.arith),
		// AVX2, the int32 accumulator and at least one 32-row chunk.
		ok: func(op *Op, rows, outC, k int) bool {
			return op.arith != nil && hasGemmAsm && op.fits32(k) && rows >= arithLanes
		},
		count: dispatchCounter("forward", FwdPathArith),
		setup: arithSetup,
		accum: arithAccumTile,
	},
	{
		label: FwdPathArithSkinny,
		// Too few rows for one chunk but enough output channels: the
		// strip form is symmetric in its operands, so the same kernels run
		// with their lanes on 32 output channels and the activations in
		// the coefficient role (kernels_arith.go; the gates mirror, see
		// arithForm.pairOKT).
		ok: func(op *Op, rows, outC, k int) bool {
			return op.arith != nil && hasGemmAsm && op.fits32(k) && rows < arithLanes && outC >= arithLanes
		},
		count: dispatchCounter("forward", FwdPathArithSkinny),
		setup: arithSkinnySetup,
		accum: arithSkinnyAccumTile,
		fit:   arithSkinnyFit,
	},
	{
		label: FwdPathPacked16,
		ok:    func(op *Op, rows, outC, k int) bool { return op.lutPad16 != nil },
		count: dispatchCounter("forward", FwdPathPacked16),
		accum: packed16AccumTile,
	},
	{
		label: FwdPathBehavioral,
		ok:    func(op *Op, rows, outC, k int) bool { return op.lutPad16 == nil && op.MulFn != nil },
		count: dispatchCounter("forward", FwdPathBehavioral),
		accum: behavioralAccumTile,
	},
}

// fits32 reports whether a k-long sum of products provably fits int32:
// lutMax*k bounds the sum for every operand (and the arith tier's
// comp-free sums, since stripMax <= lutMax).
func (op *Op) fits32(k int) bool {
	return uint64(op.lutMax)*uint64(k) <= math.MaxInt32
}

// forwardTier walks the forward ladder for a GEMM of rows rows, outC
// output channels and reduction depth k.
func (op *Op) forwardTier(rows, outC, k int) *fwdTier {
	var first *fwdTier
	for i := range fwdTiers {
		if t := &fwdTiers[i]; t.ok(op, rows, outC, k) {
			if t.label == op.pinFwd {
				return t
			}
			if first == nil {
				first = t
			}
		}
	}
	if first == nil {
		panic("nn: Op has neither a LUT nor a behavioral MulFn")
	}
	return first
}

// bwdSmall is the backward ladder's first row, the gate: it takes a GEMM
// whole — both gradients in one walk — when ok holds for the upstream
// gradient, whose nonzeros ok has then counted and run is handed.
var bwdSmall = struct {
	label string
	ok    func(dy []float32) (nnz int, ok bool)
	count *obs.Counter
	run   func(op *Op, s *KernelScratch, dxT, dy []float32, hw int, xT []uint8, w *weightSide,
		rows, nnz int, zx, scale float32)
}{BwdPathSmall, sparseGrad, dispatchCounter("backward", BwdPathSmall), (*Op).backwardSmall}

// bwdSweep is one of the rows below the gate. The dW and the dX sweep
// of a GEMM each take the first row that can read their own gradient
// table, so one GEMM may run on two rows (BwdPathMixed).
type bwdSweep struct {
	label string
	// ok reports whether the row's kernels can stand in for a gradient
	// table whose verified affine coefficients are aff (nil: not in the
	// form the affine row reads; see Op.dwAff).
	ok    func(aff []gradient.Affine) bool
	count *obs.Counter
	// dwPrep and dxPrep ready, before the column blocks run, what the
	// row's kernels read besides the operands: the k-major tables of n
	// entries the blocks fill, or for the dW sweep a table built once
	// per call at the operand zero point zx.
	dwPrep func(op *Op, s *KernelScratch, n int, zx float32)
	dxPrep func(s *KernelScratch, n int)
	// dw and dx are the row's kernels over the k columns [lo, hi).
	dw func(op *Op, s *KernelScratch, xT, wq []uint8, lo, hi, rows int, cuts []int, outC, ld, k int, zx float32)
	dx func(op *Op, s *KernelScratch, dxT []float32, xT, wq []uint8, lo, hi, rows, outC, k int)
}

var bwdSweeps = [...]bwdSweep{
	{
		label: BwdPathAffine,
		// ensurePadded keeps a sweep's coefficients only in the form
		// this row's kernels read: dW rows all alike (one level table
		// serves every channel), dX rows constant in x.
		ok:     func(aff []gradient.Affine) bool { return aff != nil },
		count:  dispatchCounter("backward", BwdPathAffine),
		dwPrep: (*Op).affineDWPrep,
		dxPrep: func(s *KernelScratch, n int) { s.dxV = grow(s.dxV, n) },
		dw:     (*Op).bwdDWAffine,
		dx:     (*Op).bwdDXAffine,
	},
	{
		label:  BwdPathFused,
		ok:     func(aff []gradient.Affine) bool { return true },
		count:  dispatchCounter("backward", BwdPathFused),
		dwPrep: func(op *Op, s *KernelScratch, n int, zx float32) { s.woff = grow(s.woff, n) },
		dxPrep: func(s *KernelScratch, n int) { s.woff = grow(s.woff, n) },
		dw:     (*Op).bwdDWGather,
		dx:     (*Op).bwdDXGather,
	},
}

var kernelBackwardMixed = dispatchCounter("backward", BwdPathMixed)

// sweepTier walks the rows below the gate for one sweep's table.
func (op *Op) sweepTier(aff []gradient.Affine) *bwdSweep {
	var first *bwdSweep
	for i := range bwdSweeps {
		if t := &bwdSweeps[i]; t.ok(aff) {
			if t.label == op.pinBwd {
				return t
			}
			if first == nil {
				first = t
			}
		}
	}
	return first
}

// backwardTiers walks the backward ladder for the upstream gradient dy:
// the rows of the dW and the dX sweep — both nil when the gate row takes
// the GEMM, because dy passes it or the op is pinned to it; any other
// pin skips the gate —, the nonzeros of dy when the gate row takes it,
// and the label and counter the GEMM reports under.
func (op *Op) backwardTiers(dy []float32) (dw, dx *bwdSweep, nnz int, path string, count *obs.Counter) {
	switch op.pinBwd {
	case bwdSmall.label:
		return nil, nil, countNonzero(dy, len(dy)), bwdSmall.label, bwdSmall.count
	case "":
		if n, ok := bwdSmall.ok(dy); ok {
			return nil, nil, n, bwdSmall.label, bwdSmall.count
		}
	}
	dw, dx = op.sweepTier(op.dwAff), op.sweepTier(op.dxAff)
	if dw != dx {
		return dw, dx, 0, BwdPathMixed, kernelBackwardMixed
	}
	return dw, dx, 0, dw.label, dw.count
}

// Pinned returns an Op with op's multiplier and gradient tables whose
// ladders prefer the named tiers ("" leaves one automatic), falling back
// to automatic selection where the op, host or shape cannot provide them
// — ForwardPath and BackwardPath report what will run. A test and
// benchmark-harness hook (cmd/benchkernels' forced rows): no layer or
// CLI pins.
func (op *Op) Pinned(fwd, bwd string) *Op {
	return &Op{Label: op.Label, Bits: op.Bits, LUT: op.LUT, MulFn: op.MulFn, Grads: op.Grads,
		mask: op.mask, comp: op.comp, pinFwd: fwd, pinBwd: bwd}
}

// ForwardPath reports which tier a forward GEMM of the given row count,
// output-channel count and reduction depth will use.
func (op *Op) ForwardPath(rows, outC, k int) string {
	op.ensurePadded()
	return op.forwardTier(rows, outC, k).label
}

// BackwardPath reports which tier a backward GEMM will use for the
// upstream gradient dy.
func (op *Op) BackwardPath(dy []float32) string {
	op.ensurePadded()
	_, _, _, path, _ := op.backwardTiers(dy)
	return path
}

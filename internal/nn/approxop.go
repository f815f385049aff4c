package nn

import (
	"fmt"
	"math"
	"sync"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/mulsynth"
	"github.com/appmult/retrain/internal/quant"
)

// Op bundles everything the approximate layers need about one
// multiplier: its product LUT for the forward pass and its gradient
// tables for the backward pass — the paper's Section IV LUT pair.
type Op struct {
	// Label names the multiplier/estimator combination for reports.
	Label string
	// Bits is the operand width B.
	Bits int
	// LUT is the product table indexed by bitutil.PairIndex. A nil
	// LUT selects behavioral simulation via MulFn (the alternative
	// forward-simulation style of [12]; see BehavioralOp).
	LUT []uint32
	// MulFn is the multiplier behaviour used when LUT is nil.
	MulFn func(w, x uint32) uint32
	// Grads supplies dAM/dW and dAM/dX. With gradient.STE tables this
	// Op realizes the baseline; with gradient.Difference tables it
	// realizes the paper's method; any gradient.FromFunc tables give a
	// user-defined estimator.
	Grads *gradient.Tables

	// Padded copies of LUT/Grads built lazily on first kernel use (see
	// ensurePadded): rows of padStride entries so a uint8 operand
	// index provably stays in bounds, which lets the kernels gather
	// without bounds checks. A product of two operands of at most 8 bits
	// fits 16, so the product rows are packed as uint16 — 512 B of L1
	// per hot row. The tables are treated as immutable once any kernel
	// has run.
	padOnce  sync.Once
	lutPad16 []uint16
	gwPad    []float32
	gxPad    []float32
	// lutMax bounds every product of the forward pass — the largest LUT
	// entry, or MaxUint32 for a behavioral op, whose MulFn has no table
	// to bound it by; it decides whether a k-long accumulation provably
	// fits in int32 (see fits32).
	lutMax uint32

	// pinFwd/pinBwd name the tiers the dispatch ladders prefer (see
	// Pinned); empty on every op a layer or CLI builds.
	pinFwd, pinBwd string

	// mask/comp capture the multiplier's partial-product structure when
	// it exposes one (the Masked/Accurate families); ensurePadded
	// synthesizes and grid-verifies the closed-form evaluator from them.
	mask *mulsynth.PPMask
	comp uint32
	// arith is the verified closed-form tier, nil when unavailable.
	arith *arithForm

	// dwAff/dxAff are the verified per-weight-level affine coefficients
	// of the gradient tables (gradient.RowAffinity over DW/DX), nil when
	// the corresponding table has any non-affine row. They gate the
	// backward affine row (tiers.go): like the arith tier, the structure
	// is synthesized and verified bitwise, so the tier is bit-exact or
	// silently absent.
	dwAff []gradient.Affine
	dxAff []gradient.Affine
}

// maskedMultiplier is the structural hook the arith tier keys on: a
// multiplier that can state which partial products it keeps and what
// constant it adds.
type maskedMultiplier interface {
	appmult.Multiplier
	Mask() mulsynth.PPMask
	Comp() uint32
}

// captureMask stashes the multiplier's partial-product structure on the
// Op when available, for ensurePadded to synthesize the arith tier.
func (op *Op) captureMask(m appmult.Multiplier) {
	if mm, ok := m.(maskedMultiplier); ok {
		mk := mm.Mask()
		op.mask = &mk
		op.comp = mm.Comp()
	}
}

// NewOp builds an Op from a multiplier and prebuilt gradient tables.
func NewOp(m appmult.Multiplier, grads *gradient.Tables) *Op {
	if grads.Bits != m.Bits() {
		panic(fmt.Sprintf("nn: gradient tables are %d-bit but multiplier %s is %d-bit",
			grads.Bits, m.Name(), m.Bits()))
	}
	op := &Op{
		Label: m.Name() + "+" + grads.Name,
		Bits:  m.Bits(),
		LUT:   appmult.BuildLUT(m),
		Grads: grads,
	}
	op.captureMask(m)
	return op
}

// STEOp builds the baseline operator: the multiplier's LUT forward with
// straight-through (accurate-multiplier) gradients.
func STEOp(m appmult.Multiplier) *Op {
	return NewOp(m, gradient.STE(m.Bits()))
}

// DifferenceOp builds the paper's proposed operator: the multiplier's
// LUT forward with difference-based gradient tables at the given half
// window size.
func DifferenceOp(m appmult.Multiplier, hws int) *Op {
	return NewOp(m, gradient.Difference(m.Name(), m.Bits(), hws, m.Mul))
}

// EstimatorOp builds an operator by asking a pluggable GradEstimator
// to synthesize the gradient tables for the multiplier. hws is the
// registry-selected half window size passed through to estimators that
// consume it (gradient.SmoothDiff without an explicit override); other
// estimators ignore it. This is the seam cmd/retrain, cmd/sweephws and
// the distributed training spec all build their Ops through.
func EstimatorOp(m appmult.Multiplier, est gradient.GradEstimator, hws int) *Op {
	op := NewOp(m, est.Tables(gradient.MulInfo{
		Name: m.Name(),
		Bits: m.Bits(),
		HWS:  hws,
		Mul:  m.Mul,
	}))
	noteEstimatorOp(est.Name())
	return op
}

// BehavioralOp builds an operator that simulates the multiplier
// behaviourally in the forward pass instead of through a precomputed
// LUT — the other mainstream AppMult simulation style the paper cites
// ([12] vs. the LUT-based [9]-[11]). Functionally identical to NewOp;
// the LUT-vs-behavioral cost difference is cmd/benchkernels'
// forward_lut_vs_behavioral.
func BehavioralOp(m appmult.Multiplier, grads *gradient.Tables) *Op {
	if grads.Bits != m.Bits() {
		panic(fmt.Sprintf("nn: gradient tables are %d-bit but multiplier %s is %d-bit",
			grads.Bits, m.Name(), m.Bits()))
	}
	return &Op{
		Label: m.Name() + "(behavioral)+" + grads.Name,
		Bits:  m.Bits(),
		MulFn: m.Mul,
		Grads: grads,
	}
}

// padStride is the padded LUT row length: the full uint8 index range,
// so `row[xv]` with `row` a 256-element slice and `xv` a uint8 needs no
// bounds check. Quantized operands are stored as uint8 levels, which
// caps the kernel bit widths at 8 — the widths DNN accelerators use.
const padStride = 256

// ensurePadded builds the padded kernel tables once per Op. Ops are
// shared across layers and the worker pool, hence the sync.Once.
func (op *Op) ensurePadded() {
	op.padOnce.Do(func() {
		if op.Bits < 1 || op.Bits > 8 {
			panic(fmt.Sprintf("nn: GEMM kernels support 1..8-bit operands, got %d", op.Bits))
		}
		n := 1 << uint(op.Bits)
		op.lutMax = math.MaxUint32
		if op.LUT != nil {
			op.lutMax = 0
			op.lutPad16 = make([]uint16, n*padStride)
			for i, v := range op.LUT[:n*n] {
				if v > math.MaxUint16 {
					panic(fmt.Sprintf("nn: %s: LUT[%d] (w=%d, x=%d) = %d does not fit the 16-bit product of two 8-bit operands",
						op.Label, i, i/n, i%n, v))
				}
				op.lutMax = max(op.lutMax, v)
				op.lutPad16[i/n*padStride+i%n] = uint16(v)
			}
			if op.mask != nil {
				// Synthesize the closed-form tier and verify it against
				// the LUT over the full operand grid; newArithForm
				// returns nil (disabling the tier) on any mismatch.
				op.arith = newArithForm(*op.mask, op.comp, op.Bits, op.LUT)
			}
		}
		if op.Grads != nil {
			op.gwPad = make([]float32, n*padStride)
			op.gxPad = make([]float32, n*padStride)
			for w := 0; w < n; w++ {
				copy(op.gwPad[w*padStride:w*padStride+n], op.Grads.DW[w*n:(w+1)*n])
				copy(op.gxPad[w*padStride:w*padStride+n], op.Grads.DX[w*n:(w+1)*n])
			}
			op.dwAff, op.dxAff = op.Grads.Affinity()
		}
	})
}

// product is AM(w, x) as every forward tier sums it: the LUT entry, or
// MulFn's value for a behavioral op (the arith rows reproduce the LUT
// over the whole operand grid). ensurePadded must have run.
func (op *Op) product(w, x uint8) int64 {
	if op.lutPad16 != nil {
		return int64(op.lutPad16[int(w)*padStride+int(x)])
	}
	return int64(op.MulFn(uint32(w), uint32(x)))
}

// pwAt resolves per-tensor (len 1) or per-channel (len outC) weight
// quantization parameter sets.
func pwAt(pw []quant.Params, oc int) quant.Params {
	if len(pw) == 1 {
		return pw[0]
	}
	return pw[oc]
}

func checkPW(pw []quant.Params, outC int) {
	if len(pw) != 1 && len(pw) != outC {
		panic("nn: weight quantization params must be per-tensor or per-channel")
	}
}

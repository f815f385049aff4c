// Package appmult defines the approximate-multiplier abstraction used
// throughout the retraining framework, the behavioural multiplier
// families (accurate, partial-product-masked, DRUM-style segmented,
// LUT-backed), and the named registry reproducing the paper's Table I.
//
// Every multiplier implements the general form of the paper's Eq. (1):
//
//	Y = AM(W, X) = W*X + eps(W, X)
//
// over unsigned B-bit operands. The retraining framework consumes
// multipliers exclusively through product LUTs (BuildLUT), matching the
// paper's LUT-based forward simulation.
package appmult

import (
	"fmt"

	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/mulsynth"
)

// Multiplier is an unsigned integer approximate multiplier.
type Multiplier interface {
	// Name returns the multiplier's registry name, e.g. "mul8u_rm8".
	Name() string
	// Bits returns the operand width B.
	Bits() int
	// Mul returns the (possibly approximate) product of two operands;
	// operands must fit in Bits() bits.
	Mul(w, x uint32) uint32
}

// Synthesizable is implemented by multipliers that can produce a
// gate-level netlist of themselves for hardware characterization.
type Synthesizable interface {
	Multiplier
	// Netlist returns a fresh gate-level implementation with inputs
	// declared W-then-X (see mulsynth.Build).
	Netlist() *circuit.Netlist
}

// BuildLUT exhaustively evaluates m into a product LUT indexed by
// bitutil.PairIndex. For B <= 8 the table has at most 65536 entries.
func BuildLUT(m Multiplier) []uint32 {
	bits := m.Bits()
	lut := make([]uint32, bitutil.NumPairs(bits))
	nv := uint32(bitutil.NumInputs(bits))
	for w := uint32(0); w < nv; w++ {
		for x := uint32(0); x < nv; x++ {
			lut[bitutil.PairIndex(w, x, bits)] = m.Mul(w, x)
		}
	}
	return lut
}

// Accurate is the exact multiplier of a given width ("mulBu_acc").
type Accurate struct {
	bits int
	name string
}

// NewAccurate returns the exact B-bit multiplier.
func NewAccurate(bits int) *Accurate {
	bitutil.CheckWidth(bits)
	return &Accurate{bits: bits, name: fmt.Sprintf("mul%du_acc", bits)}
}

// Name implements Multiplier.
func (a *Accurate) Name() string { return a.name }

// Bits implements Multiplier.
func (a *Accurate) Bits() int { return a.bits }

// Mul implements Multiplier.
func (a *Accurate) Mul(w, x uint32) uint32 {
	bitutil.CheckOperand(w, a.bits)
	bitutil.CheckOperand(x, a.bits)
	return w * x
}

// Netlist implements Synthesizable with a full array multiplier.
func (a *Accurate) Netlist() *circuit.Netlist {
	return mulsynth.BuildAccurate(a.name, a.bits)
}

// Mask returns the full partial-product mask: the accurate multiplier
// is the masked family's identity element, which lets mask-aware
// consumers (the closed-form GEMM tier in internal/nn) treat it
// uniformly — FullMask decomposes into a single operand-mask strip.
func (a *Accurate) Mask() mulsynth.PPMask { return mulsynth.FullMask(a.bits) }

// Comp returns the compensation constant (always zero: exact product).
func (a *Accurate) Comp() uint32 { return 0 }

// Masked is a partial-product-masked array multiplier with an additive
// compensation constant: the structural family covering the paper's
// "_rmk" multipliers exactly and standing in for its EvoApproxLib and
// "_syn" multipliers (see DESIGN.md).
type Masked struct {
	name string
	mask mulsynth.PPMask
	comp uint32
}

// NewMasked wraps a partial-product mask and compensation constant.
func NewMasked(name string, mask mulsynth.PPMask, comp uint32) *Masked {
	return &Masked{name: name, mask: mask, comp: comp}
}

// NewTruncated returns the "_rmk" multiplier: a B-bit array multiplier
// with the rightmost k columns of partial products removed (Fig. 2).
func NewTruncated(bits, k int) *Masked {
	return NewMasked(fmt.Sprintf("mul%du_rm%d", bits, k), mulsynth.TruncMask(bits, k), 0)
}

// Name implements Multiplier.
func (m *Masked) Name() string { return m.name }

// Bits implements Multiplier.
func (m *Masked) Bits() int { return m.mask.Bits }

// Mul implements Multiplier.
func (m *Masked) Mul(w, x uint32) uint32 { return m.mask.Mul(w, x, m.comp) }

// Mask returns a copy of the underlying partial-product mask.
func (m *Masked) Mask() mulsynth.PPMask { return m.mask.Clone() }

// Comp returns the compensation constant.
func (m *Masked) Comp() uint32 { return m.comp }

// Netlist implements Synthesizable.
func (m *Masked) Netlist() *circuit.Netlist {
	return mulsynth.Build(m.name, m.mask, m.comp)
}

// LUTBacked is a multiplier defined directly by a product table, e.g.
// extracted from an ALS-synthesized netlist or loaded from a file. It
// also adapts user-defined multipliers into the framework.
type LUTBacked struct {
	name string
	bits int
	lut  []uint32
}

// NewLUTBacked wraps a product LUT (indexed by bitutil.PairIndex; must
// have exactly 2^(2*bits) entries).
func NewLUTBacked(name string, bits int, lut []uint32) *LUTBacked {
	bitutil.CheckWidth(bits)
	if len(lut) != bitutil.NumPairs(bits) {
		panic(fmt.Sprintf("appmult: LUT has %d entries, want %d", len(lut), bitutil.NumPairs(bits)))
	}
	cp := append([]uint32(nil), lut...)
	return &LUTBacked{name: name, bits: bits, lut: cp}
}

// FromNetlist extracts the behaviour of a multiplier netlist into a
// LUT-backed multiplier.
func FromNetlist(name string, bits int, n *circuit.Netlist) *LUTBacked {
	return NewLUTBacked(name, bits, mulsynth.LUTFromNetlist(n, bits))
}

// Name implements Multiplier.
func (l *LUTBacked) Name() string { return l.name }

// Bits implements Multiplier.
func (l *LUTBacked) Bits() int { return l.bits }

// Mul implements Multiplier.
func (l *LUTBacked) Mul(w, x uint32) uint32 {
	return l.lut[bitutil.PairIndex(w, x, l.bits)]
}

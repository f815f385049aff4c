// Package mulsynth generates gate-level multiplier netlists and applies
// approximation transforms to them: partial-product truncation (the
// "_rmk" multipliers of the paper), arbitrary partial-product deletion
// masks with additive compensation (the structural family standing in
// for EvoApproxLib circuits), and a greedy approximate-logic-synthesis
// pass standing in for ALSRAC [28] (the "_syn" multipliers).
package mulsynth

import (
	"fmt"

	"github.com/appmult/retrain/internal/bitutil"
)

// PPMask selects which partial products pp[i][j] = w_i AND x_j of a
// B-bit array multiplier are kept. The weight of pp[i][j] is 2^(i+j).
type PPMask struct {
	// Bits is the operand width B.
	Bits int
	// Keep[i][j] reports whether pp of w_i and x_j is retained.
	Keep [][]bool
}

// FullMask returns a mask keeping every partial product (the accurate
// array multiplier).
func FullMask(bits int) PPMask {
	bitutil.CheckWidth(bits)
	keep := make([][]bool, bits)
	for i := range keep {
		keep[i] = make([]bool, bits)
		for j := range keep[i] {
			keep[i][j] = true
		}
	}
	return PPMask{Bits: bits, Keep: keep}
}

// TruncMask returns a mask removing the rightmost k columns of partial
// products, i.e. every pp with i+j < k. This reproduces the paper's
// "_rmk" family (Fig. 2 shows the 7-bit, k=6 instance).
func TruncMask(bits, k int) PPMask {
	if k < 0 || k > 2*bits-1 {
		panic(fmt.Sprintf("mulsynth: truncation k=%d outside [0,%d]", k, 2*bits-1))
	}
	m := FullMask(bits)
	for i := 0; i < bits; i++ {
		for j := 0; j < bits; j++ {
			if i+j < k {
				m.Keep[i][j] = false
			}
		}
	}
	return m
}

// Clone returns a deep copy of the mask.
func (m PPMask) Clone() PPMask {
	keep := make([][]bool, m.Bits)
	for i := range keep {
		keep[i] = append([]bool(nil), m.Keep[i]...)
	}
	return PPMask{Bits: m.Bits, Keep: keep}
}

// Delete marks pp[i][j] as removed and returns the mask for chaining.
func (m PPMask) Delete(i, j int) PPMask {
	m.Keep[i][j] = false
	return m
}

// RemovedWeight returns the sum of weights 2^(i+j) over removed partial
// products. Without compensation this equals the multiplier's maximum
// error distance, attained when every removed pp evaluates to 1.
func (m PPMask) RemovedWeight() int64 {
	var s int64
	for i := range m.Keep {
		for j := range m.Keep[i] {
			if !m.Keep[i][j] {
				s += int64(1) << uint(i+j)
			}
		}
	}
	return s
}

// Mul evaluates the masked multiplier behaviourally:
//
//	AM(w, x) = sum over kept pp of w_i x_j 2^(i+j) + comp.
//
// It is the reference model the netlist built by Build must match.
func (m PPMask) Mul(w, x uint32, comp uint32) uint32 {
	bitutil.CheckOperand(w, m.Bits)
	bitutil.CheckOperand(x, m.Bits)
	var y uint32
	for i := 0; i < m.Bits; i++ {
		if bitutil.Bit(w, i) == 0 {
			continue
		}
		for j := 0; j < m.Bits; j++ {
			if m.Keep[i][j] && bitutil.Bit(x, j) == 1 {
				y += 1 << uint(i+j)
			}
		}
	}
	return y + comp
}

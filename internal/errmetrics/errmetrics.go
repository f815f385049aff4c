// Package errmetrics computes the standard approximate-multiplier
// error metrics of the paper's Eq. (2): error rate (ER), normalized
// mean error distance (NMED), and maximum error distance (MaxED),
// by exhaustive enumeration of all 2^(2B) operand pairs.
package errmetrics

import (
	"fmt"

	"github.com/appmult/retrain/internal/bitutil"
)

// Metrics holds the three error figures for one approximate multiplier.
type Metrics struct {
	// ERPercent is the fraction of operand pairs with a wrong product,
	// in percent.
	ERPercent float64
	// NMEDPercent is the mean |error| divided by 2^(2B)-1, in percent
	// (the paper's normalization).
	NMEDPercent float64
	// MaxED is the largest |error| over all operand pairs.
	MaxED int64
	// MeanED is the unnormalized mean |error| (not part of Eq. (2) but
	// convenient when calibrating multipliers to a target NMED).
	MeanED float64
}

// String renders the metrics in Table I style.
func (m Metrics) String() string {
	return fmt.Sprintf("ER=%.1f%% NMED=%.2f%% MaxED=%d", m.ERPercent, m.NMEDPercent, m.MaxED)
}

// MulFunc is any B-bit multiplier behaviour.
type MulFunc func(w, x uint32) uint32

// Exhaustive measures the metrics of approx against the accurate
// product under a uniform input distribution, enumerating all pairs.
// bits must be at most 12 to keep the enumeration tractable (2^24
// pairs); the paper's multipliers are 6-8 bits.
func Exhaustive(bits int, approx MulFunc) Metrics {
	bitutil.CheckWidth(bits)
	if bits > 12 {
		panic("errmetrics: exhaustive enumeration limited to bits <= 12")
	}
	nv := uint32(bitutil.NumInputs(bits))
	var (
		wrong int64
		sumED float64
		maxED int64
	)
	for w := uint32(0); w < nv; w++ {
		for x := uint32(0); x < nv; x++ {
			acc := int64(w) * int64(x)
			got := int64(approx(w, x))
			ed := bitutil.AbsDiff(got, acc)
			if ed != 0 {
				wrong++
			}
			sumED += float64(ed)
			if ed > maxED {
				maxED = ed
			}
		}
	}
	total := float64(nv) * float64(nv)
	norm := float64(int64(1)<<uint(2*bits) - 1)
	return Metrics{
		ERPercent:   float64(wrong) / total * 100,
		NMEDPercent: sumED / total / norm * 100,
		MaxED:       maxED,
		MeanED:      sumED / total,
	}
}

// Package errmetrics computes the standard approximate-multiplier
// error metrics of the paper's Eq. (2): error rate (ER), normalized
// mean error distance (NMED), and maximum error distance (MaxED),
// by exhaustive enumeration of all 2^(2B) operand pairs.
package errmetrics

import (
	"fmt"
	"math"

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

// Weighted measures metrics under an arbitrary input distribution.
// prob must hold one probability per operand pair (indexed by
// bitutil.PairIndex) and sum to 1 within tolerance; it generalizes
// Eq. (2) beyond the uniform case.
func Weighted(bits int, approx MulFunc, prob []float64) Metrics {
	if len(prob) != bitutil.NumPairs(bits) {
		panic("errmetrics: probability table size mismatch")
	}
	var psum float64
	for _, p := range prob {
		psum += p
	}
	if psum < 0.999 || psum > 1.001 {
		panic(fmt.Sprintf("errmetrics: probabilities sum to %v, want 1", psum))
	}
	nv := uint32(bitutil.NumInputs(bits))
	var (
		wrong float64
		sumED float64
		maxED int64
	)
	for w := uint32(0); w < nv; w++ {
		for x := uint32(0); x < nv; x++ {
			p := prob[bitutil.PairIndex(w, x, bits)]
			acc := int64(w) * int64(x)
			got := int64(approx(w, x))
			ed := bitutil.AbsDiff(got, acc)
			if ed != 0 {
				wrong += p
			}
			sumED += float64(ed) * p
			if ed > maxED && p > 0 {
				maxED = ed
			}
		}
	}
	norm := float64(int64(1)<<uint(2*bits) - 1)
	return Metrics{
		ERPercent:   wrong * 100,
		NMEDPercent: sumED / norm * 100,
		MaxED:       maxED,
		MeanED:      sumED,
	}
}

// OperandDistribution returns a per-pair probability table for two
// independent operands with the given per-level probabilities, for use
// with Weighted. It generalizes Eq. (2)'s uniform assumption to the
// skewed operand statistics real DNN tensors produce (activations pile
// up near the zero point after ReLU).
func OperandDistribution(bits int, wProb, xProb []float64) []float64 {
	nv := bitutil.NumInputs(bits)
	if len(wProb) != nv || len(xProb) != nv {
		panic(fmt.Sprintf("errmetrics: level distributions need %d entries", nv))
	}
	out := make([]float64, bitutil.NumPairs(bits))
	for w := 0; w < nv; w++ {
		for x := 0; x < nv; x++ {
			out[bitutil.PairIndex(uint32(w), uint32(x), bits)] = wProb[w] * xProb[x]
		}
	}
	return out
}

// GaussianLevels returns a normalized discretized Gaussian over the
// 2^bits quantization levels, the standard model for weight-level
// statistics (weights quantize symmetrically around the zero point).
func GaussianLevels(bits int, mean, sigma float64) []float64 {
	nv := bitutil.NumInputs(bits)
	if sigma <= 0 {
		panic("errmetrics: sigma must be positive")
	}
	out := make([]float64, nv)
	var sum float64
	for v := 0; v < nv; v++ {
		d := (float64(v) - mean) / sigma
		out[v] = math.Exp(-d * d / 2)
		sum += out[v]
	}
	for v := range out {
		out[v] /= sum
	}
	return out
}

// ExponentialLevels returns a normalized geometric decay over the
// levels, the standard model for post-ReLU activation statistics
// (mass concentrated at small levels). rate in (0,1) is the per-level
// retention.
func ExponentialLevels(bits int, rate float64) []float64 {
	nv := bitutil.NumInputs(bits)
	if rate <= 0 || rate >= 1 {
		panic("errmetrics: rate must be in (0,1)")
	}
	out := make([]float64, nv)
	var sum float64
	p := 1.0
	for v := 0; v < nv; v++ {
		out[v] = p
		sum += p
		p *= rate
	}
	for v := range out {
		out[v] /= sum
	}
	return out
}

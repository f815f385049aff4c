// Package quant implements the uniform affine (asymmetric) quantization
// of the paper's Eqs. (7) and (8): float weights and activations are
// mapped onto unsigned B-bit integers with a scale and zero point, the
// integer product is computed by an (approximate) multiplier, and the
// result is dequantized as
//
//	y = s_w * s_x * (Y - Z_x*W - Z_w*X + Z_w*Z_x).
//
// Calibration follows standard quantization-aware training practice:
// min/max observers with exponential moving averages for activations,
// and per-tensor min/max for weights.
package quant

import (
	"fmt"
	"math"

	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/tensor"
)

// Params is one tensor's quantization mapping onto unsigned B-bit
// integers: q = round(v/Scale) + Zero, clamped to [0, 2^B-1].
type Params struct {
	// Scale is the float step size s (> 0).
	Scale float32
	// Zero is the integer zero point Z in [0, 2^B-1].
	Zero int32
	// Bits is the operand width B.
	Bits int
}

// Calibrate derives quantization parameters covering [mn, mx]. The
// range is widened to include zero so that zero-padding quantizes
// exactly to the zero point, as required for padded convolutions.
func Calibrate(mn, mx float32, bits int) Params {
	bitutil.CheckWidth(bits)
	if mn > mx {
		panic(fmt.Sprintf("quant: empty range [%v, %v]", mn, mx))
	}
	if mn > 0 {
		mn = 0
	}
	if mx < 0 {
		mx = 0
	}
	qmax := float32(bitutil.Mask(bits))
	scale64 := (float64(mx) - float64(mn)) / float64(qmax)
	if scale64 <= 0 {
		// Degenerate all-zero tensor: any positive scale works.
		scale64 = 1
	}
	scale := float32(scale64)
	zero := int32(math.Round(-float64(mn) / scale64))
	if zero < 0 {
		zero = 0
	}
	if zero > int32(qmax) {
		zero = int32(qmax)
	}
	return Params{Scale: scale, Zero: zero, Bits: bits}
}

// QMax returns the largest representable integer level, 2^B-1.
func (p Params) QMax() uint32 { return bitutil.Mask(p.Bits) }

// roundLimit bounds the rounded quotient before it is converted to an
// integer. Go leaves a float-to-int conversion that does not fit
// implementation-defined — amd64 yields MinInt32 (so +Inf used to
// quantize to level 0), arm64 saturates — and 2^24 is beyond any level
// plus zero point, so clamping here loses nothing and pins one answer.
const roundLimit = 1 << 24

// level returns round(v/Scale) + Zero, ties away from zero, before the
// clamp to [0, QMax]. A NaN counts as below the range.
func (p Params) level(v float32) int32 {
	r := math.Round(float64(v / p.Scale))
	if !(r >= -roundLimit) {
		r = -roundLimit
	} else if r > roundLimit {
		r = roundLimit
	}
	return int32(r) + p.Zero
}

// Quantize maps a float to its integer level with clamping (Eq. 7).
func (p Params) Quantize(v float32) uint32 {
	q := p.level(v)
	if q < 0 {
		return 0
	}
	if q > int32(p.QMax()) {
		return p.QMax()
	}
	return uint32(q)
}

// Clipped reports whether v falls outside the representable range, in
// which case the straight-through gradient of the rounding is zero.
func (p Params) Clipped(v float32) bool {
	q := p.level(v)
	return q < 0 || q > int32(p.QMax())
}

// QuantizeInto writes Quantize(v) for every element of data into q and,
// when clip is non-nil, Clipped(v) into clip — both derived from one
// divide and round per element, where calling the two scalar methods
// redoes them. The division stays a division: multiplying by a
// reciprocal would round differently. Levels are stored as uint8, so
// Bits must be <= 8. The whole 8-element blocks go through the AVX2
// kernel where there is one (quant_amd64.go); the loop below is its
// tail handler and, elsewhere, the whole pass.
func (p Params) QuantizeInto(q []uint8, clip []bool, data []float32) {
	if p.Bits > 8 {
		panic("quant: QuantizeInto supports Bits <= 8")
	}
	q = q[:len(data)]
	qmax := int32(p.QMax())
	for i := p.quantizeBlocks(q, clip, data); i < len(data); i++ {
		l := p.level(data[i])
		clipped := false
		if l < 0 {
			l, clipped = 0, true
		} else if l > qmax {
			l, clipped = qmax, true
		}
		q[i] = uint8(l)
		if clip != nil {
			clip[i] = clipped
		}
	}
}

// Observer tracks activation ranges across batches with an exponential
// moving average, the calibration scheme of [19] used by the paper's
// framework. The zero value is ready to use.
type Observer struct {
	// Momentum is the EMA coefficient (default 0.9 when zero).
	Momentum float32
	min, max float32
	seen     bool
}

// Observe folds one tensor's range into the running estimate.
func (o *Observer) Observe(t *tensor.Tensor) {
	mn, mx := tensor.MinMax(t.Data)
	o.ObserveRange(mn, mx)
}

// ObserveRange folds an externally computed [mn, mx] range into the
// running estimate, exactly as Observe would fold the tensor it was
// computed from. It exists for the data-parallel sharded trainer: each
// shard records its slice's raw range during the forward pass, the
// trainer merges them (min/max is order-independent), and every
// replica folds the identical merged range — so all replicas hold
// bit-identical observer state without observing the same tensor.
func (o *Observer) ObserveRange(mn, mx float32) {
	if !o.seen {
		o.min, o.max = mn, mx
		o.seen = true
		return
	}
	m := o.Momentum
	if m == 0 {
		m = 0.9
	}
	o.min = float32(m*o.min) + float32((1-m)*mn)
	o.max = float32(m*o.max) + float32((1-m)*mx)
}

// Seen reports whether any batch has been observed.
func (o *Observer) Seen() bool { return o.seen }

// Range returns the current min/max estimate.
func (o *Observer) Range() (mn, mx float32) { return o.min, o.max }

// Params derives quantization parameters from the observed range.
func (o *Observer) Params(bits int) Params {
	if !o.seen {
		// A sane default before the first observation.
		return Calibrate(-1, 1, bits)
	}
	return Calibrate(o.min, o.max, bits)
}

// StateVec exports the observer's evolving state (range estimate and
// whether anything was seen; Momentum is configuration, not state) so
// training checkpoints can capture it — losing the range estimate on
// resume would shift every subsequent quantization.
func (o *Observer) StateVec() []float32 {
	seen := float32(0)
	if o.seen {
		seen = 1
	}
	return []float32{o.min, o.max, seen}
}

// SetStateVec restores state captured by StateVec.
func (o *Observer) SetStateVec(s []float32) error {
	if len(s) != 3 {
		return fmt.Errorf("quant: observer state has %d values, want 3", len(s))
	}
	o.min, o.max, o.seen = s[0], s[1], s[2] != 0
	return nil
}

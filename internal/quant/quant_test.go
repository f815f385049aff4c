package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/appmult/retrain/internal/tensor"
)

func TestCalibrateBasics(t *testing.T) {
	p := Calibrate(-1, 1, 8)
	if p.Bits != 8 || p.Scale <= 0 {
		t.Fatalf("bad params: %+v", p)
	}
	// Zero must quantize exactly to the zero point.
	if p.Quantize(0) != uint32(p.Zero) {
		t.Errorf("Quantize(0) = %d, zero point %d", p.Quantize(0), p.Zero)
	}
	if p.dequantize(uint32(p.Zero)) != 0 {
		t.Errorf("dequantize(Z) = %v", p.dequantize(uint32(p.Zero)))
	}
}

func TestCalibratePositiveOnlyRangeIncludesZero(t *testing.T) {
	// ReLU activations are in [0, mx]; zero must stay representable.
	p := Calibrate(0.5, 4.0, 7)
	if p.Zero != 0 {
		t.Errorf("positive-only range: zero point %d, want 0", p.Zero)
	}
	if p.Quantize(0) != 0 {
		t.Errorf("Quantize(0) = %d", p.Quantize(0))
	}
}

func TestCalibrateNegativeOnlyRange(t *testing.T) {
	p := Calibrate(-4, -1, 8)
	if p.Quantize(0) != p.QMax() {
		t.Errorf("negative-only range: Quantize(0) = %d, want %d", p.Quantize(0), p.QMax())
	}
}

func TestCalibrateDegenerate(t *testing.T) {
	p := Calibrate(0, 0, 8)
	if p.Scale <= 0 {
		t.Errorf("degenerate calibration produced scale %v", p.Scale)
	}
	if p.Quantize(0) != uint32(p.Zero) {
		t.Error("zero not representable in degenerate range")
	}
}

func TestQuantizeClamps(t *testing.T) {
	p := Calibrate(-1, 1, 8)
	if p.Quantize(100) != 255 {
		t.Errorf("overflow not clamped: %d", p.Quantize(100))
	}
	if p.Quantize(-100) != 0 {
		t.Errorf("underflow not clamped: %d", p.Quantize(-100))
	}
	if !p.Clipped(100) || !p.Clipped(-100) || p.Clipped(0.5) {
		t.Error("Clipped misreports")
	}
}

func TestRoundTripErrorBound(t *testing.T) {
	// |dequantize(Quantize(v)) - v| <= Scale/2 for in-range v: the defining
	// property of round-to-nearest uniform quantization.
	p := Calibrate(-2, 2, 7)
	f := func(raw int16) bool {
		v := float32(raw) / float32(math.MaxInt16) * 2 // in [-2, 2]
		fq := p.dequantize(p.Quantize(v))
		return math.Abs(float64(fq-v)) <= float64(p.Scale)/2+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeMonotone(t *testing.T) {
	p := Calibrate(-3, 5, 6)
	f := func(a, b int16) bool {
		va := float32(a) / 1000
		vb := float32(b) / 1000
		if va > vb {
			va, vb = vb, va
		}
		return p.Quantize(va) <= p.Quantize(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEq8DequantIdentity(t *testing.T) {
	// The paper's Eq. (8) product dequantization must recover the float
	// product of the fake-quantized inputs when the multiplier is
	// accurate: s_w s_x (WX - Z_x W - Z_w X + Z_w Z_x)
	//         = [s_w (W - Z_w)] * [s_x (X - Z_x)].
	pw := Calibrate(-0.8, 0.9, 7)
	px := Calibrate(0, 3.1, 7)
	for _, w := range []float32{-0.8, -0.2, 0, 0.33, 0.9} {
		for _, x := range []float32{0, 0.5, 1.7, 3.1} {
			W := pw.Quantize(w)
			X := px.Quantize(x)
			Y := W * X // accurate integer multiplier
			lhs := pw.Scale * px.Scale * float32(int64(Y)-int64(px.Zero)*int64(W)-int64(pw.Zero)*int64(X)+int64(pw.Zero)*int64(px.Zero))
			rhs := pw.dequantize(W) * px.dequantize(X)
			if math.Abs(float64(lhs-rhs)) > 1e-5 {
				t.Fatalf("Eq.(8) identity violated at (%v,%v): %v vs %v", w, x, lhs, rhs)
			}
		}
	}
}

func TestObserverEMA(t *testing.T) {
	var o Observer
	if o.Seen() {
		t.Error("fresh observer claims to have seen data")
	}
	o.Observe(tensor.FromData([]float32{-1, 1}, 2))
	mn, mx := o.Range()
	if mn != -1 || mx != 1 {
		t.Fatalf("first observation not adopted: %v %v", mn, mx)
	}
	// Second observation moves the range by (1-momentum) of the delta.
	o.Observe(tensor.FromData([]float32{-3, 2}, 2))
	mn, mx = o.Range()
	wantMin := float32(0.9*-1 + 0.1*-3)
	wantMax := float32(0.9*1 + 0.1*2)
	if math.Abs(float64(mn-wantMin)) > 1e-6 || math.Abs(float64(mx-wantMax)) > 1e-6 {
		t.Errorf("EMA range (%v,%v), want (%v,%v)", mn, mx, wantMin, wantMax)
	}
}

func TestObserverDefaultParams(t *testing.T) {
	var o Observer
	p := o.Params(8)
	if p.Scale <= 0 {
		t.Error("unseen observer produced invalid params")
	}
	o.Observe(tensor.FromData([]float32{0, 6}, 2))
	p = o.Params(8)
	if p.Quantize(6) != 255 {
		t.Errorf("observed max does not hit top level: %d", p.Quantize(6))
	}
}

func TestCalibrateRejectsEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted range accepted")
		}
	}()
	Calibrate(2, 1, 8)
}

// TestQuantizeIntoMatchesScalar pins the slice quantizer to the scalar
// definitions — it is the AVX2 kernel's bit-identity evidence and,
// under -tags purego, the Go loop's: for every value the level equals
// Quantize and the flag equals Clipped. Per Params (2 to 8 bits, the
// zero point at 0, mid-range and qmax) the data holds a sweep that
// clips on both sides, every rounding boundary (l ± 0.5)*Scale for l in
// [-300, 400] ± 4 ulp, ±0 (the padding value), denormals, the inputs
// whose quotient does not fit an int32, and 2^18 random values, half of
// them random bit patterns; then every length 0..40 at shifting
// offsets, so each lane position meets the tail.
func TestQuantizeIntoMatchesScalar(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		name   string
		mn, mx float32
		bits   int
	}{
		{"symmetric/8", -1, 1, 8},
		{"symmetric/7", -1, 1, 7},
		{"symmetric/6", -1.3, 1.1, 6},
		{"positive/8", 0, 2.5, 8},
		{"positive/7", 0, 2.5, 7},
		{"positive/6", 0, 2, 6},
		{"negative/8", -3, 0, 8},
		{"negative/7", -3, 0, 7},
		{"negative/6", -3, 0, 6},
		{"negative/4", -3, 0, 4},
		{"skewed/2", -0.25, 4, 2},
		{"widened-to-zero/7", 0.5, 1.5, 7},
		{"degenerate/8", 0, 0, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			p := Calibrate(tc.mn, tc.mx, tc.bits)
			span := tc.mx - tc.mn
			if span == 0 {
				span = 1
			}
			var data []float32
			for v := tc.mn - 2*span; v <= tc.mx+2*span; v += span / 997 {
				data = append(data, v)
			}
			for l := -300; l <= 400; l++ {
				for _, half := range []float64{-0.5, 0.5} {
					b := float32((float64(l) + half - float64(p.Zero)) * float64(p.Scale))
					lo, hi := b, b
					data = append(data, b)
					for u := 0; u < 4; u++ {
						lo, hi = math.Nextafter32(lo, -inf), math.Nextafter32(hi, inf)
						data = append(data, lo, hi)
					}
				}
			}
			data = append(data, 0, float32(math.Copysign(0, -1)), 1e30, -1e30, p.Scale/2, -p.Scale/2,
				math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-40, 0x1p-126, -0x1p-126)
			data = append(data, outOfRange(p)...)
			for i := 0; i < 1<<18; i++ {
				if i%2 == 0 {
					data = append(data, math.Float32frombits(rng.Uint32()))
				} else {
					data = append(data, float32(rng.NormFloat64())*p.Scale*float32(p.QMax()))
				}
			}

			checkQuantizeInto(t, p, data)
			for n := 0; n <= 40; n++ {
				off := (n * 37) % 600
				checkQuantizeInto(t, p, data[off:off+n])
			}
			var low, high int
			for _, v := range data {
				if p.Clipped(v) && p.Quantize(v) == 0 {
					low++
				}
				if p.Clipped(v) && p.Quantize(v) == p.QMax() {
					high++
				}
			}
			if low == 0 || high == 0 {
				t.Fatalf("sweep clipped %d low, %d high; want both sides", low, high)
			}
			// The byte im2col pads with the zero point: it must be what a
			// float zero quantizes to, unclipped.
			if p.Quantize(0) != uint32(p.Zero) || p.Clipped(0) {
				t.Fatalf("Quantize(0) = %d (clipped %v), zero point %d", p.Quantize(0), p.Clipped(0), p.Zero)
			}
		})
	}
}

// checkQuantizeInto asserts that QuantizeInto over data — with and
// without clip flags — returns the scalar Quantize level and Clipped
// flag for every element.
func checkQuantizeInto(t *testing.T, p Params, data []float32) {
	t.Helper()
	q := make([]uint8, len(data))
	qOnly := make([]uint8, len(data))
	clip := make([]bool, len(data))
	for i := range q {
		q[i], qOnly[i], clip[i] = 0xAA, 0xAA, i%2 == 0 // stale contents
	}
	p.QuantizeInto(q, clip, data)
	p.QuantizeInto(qOnly, nil, data)
	for i, v := range data {
		if uint32(q[i]) != p.Quantize(v) || clip[i] != p.Clipped(v) || qOnly[i] != q[i] {
			t.Fatalf("%+v len %d: v[%d]=%v (%#08x): got level %d / %d without flags, clipped %v; scalar (%d, %v)",
				p, len(data), i, v, math.Float32bits(v), q[i], qOnly[i], clip[i], p.Quantize(v), p.Clipped(v))
		}
	}
}

// outOfRange lists the inputs whose rounded quotient does not fit an
// int32 (or is not a number) next to ones that just do.
func outOfRange(p Params) []float32 {
	inf := float32(math.Inf(1))
	edge := float32(math.Ldexp(float64(p.Scale), 31))
	return []float32{inf, -inf, float32(math.NaN()), -float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32,
		edge, math.Nextafter32(edge, 0), math.Nextafter32(edge, inf), -edge,
		math.Nextafter32(-edge, 0), math.Nextafter32(-edge, -inf), edge / 128, -edge / 128}
}

// TestQuantizeOutOfRangePinned pins what Go leaves implementation-
// defined: a quotient beyond int32 saturates to the near end of the
// level range on every GOARCH (amd64's native conversion would send +Inf
// to level 0), and NaN counts as below the range.
func TestQuantizeOutOfRangePinned(t *testing.T) {
	for _, p := range []Params{Calibrate(-1, 1, 8), Calibrate(0, 3, 7), Calibrate(-2, 0, 6), {Scale: 1e-30, Zero: 3, Bits: 8}} {
		for _, v := range outOfRange(p) {
			want := uint32(0)
			if v > 0 {
				want = p.QMax()
			}
			if got := p.Quantize(v); got != want || !p.Clipped(v) {
				t.Errorf("%+v: Quantize(%v) = %d (clipped %v), want %d clipped", p, v, got, p.Clipped(v), want)
			}
		}
		checkQuantizeInto(t, p, outOfRange(p))
	}
}

// dequantize maps an integer level back to float: s*(q - Z).
func (p Params) dequantize(q uint32) float32 {
	return p.Scale * float32(int32(q)-p.Zero)
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

func TestNewOpBitsMismatchPanics(t *testing.T) {
	m := appmult.NewAccurate(8)
	tables := gradient.STE(7)
	defer func() {
		if recover() == nil {
			t.Error("bit-width mismatch accepted")
		}
	}()
	NewOp(m, tables)
}

func TestOpLabels(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	ste := STEOp(e.Mult)
	diff := DifferenceOp(e.Mult, 2)
	if ste.Label == diff.Label {
		t.Error("estimators share a label")
	}
	for _, op := range []*Op{ste, diff} {
		if op.Bits != 6 || len(op.LUT) != 1<<12 {
			t.Errorf("%s: bits=%d lut=%d", op.Label, op.Bits, len(op.LUT))
		}
	}
}

// TestApproxGEMMAgainstDirectMath checks the Eq. (8) accumulation in
// both GEMM kernels against a literal per-product implementation.
func TestApproxGEMMAgainstDirectMath(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	op := STEOp(e.Mult)
	pw := quant.Calibrate(-1, 1, 6)
	px := quant.Calibrate(0, 2, 6)

	rows, outC, k := 3, 2, 5
	xq := []uint8{
		1, 10, 20, 30, 63,
		0, 0, 0, 0, 0,
		5, 5, 5, 5, 5,
	}
	wq := []uint8{
		2, 4, 8, 16, 32,
		63, 1, 63, 1, 63,
	}
	bias := []float32{0.25, -0.5}
	ref := op.ForwardGEMMRef(xq, wq, rows, outC, k, pw, px, bias)
	blocked := make([]float32, rows*outC)
	xT, _ := kMajor(xq, nil, rows, k)
	op.ForwardGEMM(nil, blocked, xT, wq, rows, outC, k, []quant.Params{pw}, px, bias)

	for _, variant := range []struct {
		name string
		at   func(r, oc int) float32
	}{
		{"reference", func(r, oc int) float32 { return ref.At(r, oc) }},
		{"blocked", func(r, oc int) float32 { return blocked[r*outC+oc] }},
	} {
		for r := 0; r < rows; r++ {
			for oc := 0; oc < outC; oc++ {
				var want float64
				for i := 0; i < k; i++ {
					w := uint32(wq[oc*k+i])
					x := uint32(xq[r*k+i])
					y := int64(e.Mult.Mul(w, x))
					term := float64(pw.Scale) * float64(px.Scale) *
						float64(y-int64(px.Zero)*int64(w)-int64(pw.Zero)*int64(x)+int64(pw.Zero)*int64(px.Zero))
					want += term
				}
				want += float64(bias[oc])
				if d := math.Abs(want - float64(variant.at(r, oc))); d > 1e-4*math.Max(1, math.Abs(want)) {
					t.Errorf("%s gemm[%d][%d] = %v, want %v", variant.name, r, oc, variant.at(r, oc), want)
				}
			}
		}
	}
}

// TestApproxBackwardAgainstDirectMath checks the Eq. (9) gradient
// accumulation against a literal implementation.
func TestApproxBackwardAgainstDirectMath(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	op := DifferenceOp(e.Mult, 2)
	pw := quant.Calibrate(-1, 1, 6)
	px := quant.Calibrate(0, 2, 6)

	rows, outC, k := 2, 2, 3
	xq := []uint8{3, 40, 63, 0, 7, 20}
	wq := []uint8{10, 20, 30, 5, 60, 1}
	dy := []float32{1, -0.5, 0.25, 2}
	noClip := make([]bool, 6)

	dw := make([]float32, outC*k)
	dxT := make([]float32, k*rows)
	gsum := make([]float32, outC)
	xT, _ := kMajor(xq, nil, rows, k)
	op.BackwardGEMM(nil, dw, dxT, gsum, dy, xT, wq, noClip, noClip, rows, outC, k, []quant.Params{pw}, px)
	dx := rowMajor(dxT, rows, k)

	for oc := 0; oc < outC; oc++ {
		for i := 0; i < k; i++ {
			var want float64
			for r := 0; r < rows; r++ {
				gw, _ := op.Grads.At(uint32(wq[oc*k+i]), uint32(xq[r*k+i]))
				want += float64(dy[r*outC+oc]) * (float64(gw) - float64(px.Zero))
			}
			want *= float64(px.Scale)
			if d := math.Abs(want - float64(dw[oc*k+i])); d > 1e-4*math.Max(1, math.Abs(want)) {
				t.Errorf("dw[%d][%d] = %v, want %v", oc, i, dw[oc*k+i], want)
			}
		}
	}
	for r := 0; r < rows; r++ {
		for i := 0; i < k; i++ {
			var want float64
			for oc := 0; oc < outC; oc++ {
				_, gx := op.Grads.At(uint32(wq[oc*k+i]), uint32(xq[r*k+i]))
				want += float64(dy[r*outC+oc]) * (float64(gx) - float64(pw.Zero))
			}
			want *= float64(pw.Scale)
			if d := math.Abs(want - float64(dx[r*k+i])); d > 1e-4*math.Max(1, math.Abs(want)) {
				t.Errorf("dx[%d][%d] = %v, want %v", r, i, dx[r*k+i], want)
			}
		}
	}
}

func TestApproxBackwardClipMasksZeroGradients(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	op := STEOp(e.Mult)
	pw := quant.Calibrate(-1, 1, 6)
	px := quant.Calibrate(0, 2, 6)
	rows, outC, k := 1, 1, 2 // one row: the k-major operand is the row-major one
	xq := []uint8{10, 20}
	wq := []uint8{30, 40}
	dy := []float32{1}
	xClip := []bool{true, false}
	wClip := []bool{false, true}
	dw := make([]float32, outC*k)
	dx := make([]float32, rows*k)
	gsum := make([]float32, outC)
	op.BackwardGEMM(nil, dw, dx, gsum, dy, xq, wq, xClip, wClip, rows, outC, k, []quant.Params{pw}, px)
	if dw[1] != 0 {
		t.Errorf("clipped weight has gradient %v", dw[1])
	}
	if dx[0] != 0 {
		t.Errorf("clipped activation has gradient %v", dx[0])
	}
	if dw[0] == 0 || dx[1] == 0 {
		t.Error("unclipped entries should have nonzero gradients")
	}
}

// TestExportedGEMMsRunTheLayersContract: ForwardGEMM and BackwardGEMM
// take what an ApproxLinear (a 1x1 convolution: hw = 1, no dead taps)
// hands its own GEMMs — the k-major operand matrix and clip flags, the
// weight levels and the quantization parameters — and return the
// layer's output, weight and bias gradients and clip-masked input
// gradient bit for bit, on every backward tier the two ops reach.
func TestExportedGEMMsRunTheLayersContract(t *testing.T) {
	e, _ := appmult.Lookup("mul7u_rm6")
	for _, op := range []*Op{STEOp(e.Mult), DifferenceOp(e.Mult, 6)} {
		for _, sh := range [][3]int{{40, 37, 11}, {5, 64, 10}} {
			for _, sparse := range []bool{false, true} {
				n, in, out := sh[0], sh[1], sh[2]
				rng := rand.New(rand.NewSource(int64(n)))
				l := NewApproxLinear("fc", in, out, op, rng)
				// A narrower range than the input's, so some inputs clip.
				l.ActivationObserver().ObserveRange(-0.5, 0.5)
				l.SetDeferObserve(true)
				x := tensor.New(n, in)
				x.RandNormal(rng, 1)
				dy := tensor.New(n, out)
				dy.RandNormal(rng, 1)
				if sparse {
					for i := range dy.Data {
						if i%8 != 0 {
							dy.Data[i] = 0
						}
					}
				}
				// Gradients start at −0, as BackwardGEMM's do, so the
				// layer's sums are written too.
				negZero := float32(math.Copysign(0, -1))
				for _, p := range l.Params() {
					for i := range p.Grad.Data {
						p.Grad.Data[i] = negZero
					}
				}
				y := l.Forward(x, true).Clone()
				dx := l.Backward(dy).Clone()

				c := l.conv
				_, xClipT := kMajor(c.xq, c.xClip, n, in)
				if !slices.Contains(xClipT, true) {
					t.Fatal("no input clipped: the mask goes unchecked")
				}
				name := fmt.Sprintf("%s %v sparse=%v", op.Label, sh, sparse)
				var s KernelScratch
				got := make([]float32, n*out)
				op.ForwardGEMM(&s, got, c.xT, c.w.wq, n, out, in, []quant.Params{c.w.pw}, c.px, l.Bias.Value.Data)
				requireSameBits(t, name+": forward", got, y.Data)
				dw, dxT, gsum := make([]float32, out*in), make([]float32, in*n), make([]float32, out)
				op.BackwardGEMM(&s, dw, dxT, gsum, dy.Data, c.xT, c.w.wq, xClipT, c.w.wClip, n, out, in, []quant.Params{c.w.pw}, c.px)
				requireSameBits(t, name+": dw", dw, l.Weight.Grad.Data)
				requireSameBits(t, name+": db", gsum, l.Bias.Grad.Data)
				requireSameBits(t, name+": dx", rowMajor(dxT, n, in), dx.Data)
			}
		}
	}
}

func TestQuantizeWithClip(t *testing.T) {
	p := quant.Calibrate(-1, 1, 6)
	q, clip := make([]uint8, 3), make([]bool, 3)
	new(KernelScratch).quantizeWithClip(q, clip, []float32{-5, 0, 5}, p)
	if q[0] != 0 || q[2] != uint8(p.QMax()) {
		t.Errorf("clamped levels: %v", q)
	}
	if !clip[0] || clip[1] || !clip[2] {
		t.Errorf("clip mask: %v", clip)
	}
}

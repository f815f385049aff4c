package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// convOracle is the formulation ApproxConv2D used before its data path
// went byte-first, written from the pieces that never changed: float
// im2col, every patch entry quantized and clip-flagged by the scalar
// quant.Params methods, the reference GEMMs with the rows x k mask,
// then col2im — the row-major loop nests of conv_rowmajor_test.go. It reads the layer's weights and the quantization
// parameters of its last forward, and returns y, dx, dW and db.
func convOracle(c *ApproxConv2D, x, dy *tensor.Tensor) (y, dx *tensor.Tensor, dw, db []float32) {
	g := tensor.Geometry(c.InC, x.Shape[2], x.Shape[3], c.OutC, c.K, c.K, c.Stride, c.Pad)
	n, k := x.Shape[0], g.K()
	rows := n * g.OutH * g.OutW
	px := c.px
	pw := append([]quant.Params(nil), c.w.pw...)

	cols := im2colRows(x, g)
	xq, xClip := make([]uint8, rows*k), make([]bool, rows*k)
	for i, v := range cols.Data {
		xq[i], xClip[i] = uint8(px.Quantize(v)), px.Clipped(v)
	}
	wq, wClip := make([]uint8, c.OutC*k), make([]bool, c.OutC*k)
	for i, v := range c.Weight.Value.Data {
		p := pwAt(pw, i/k)
		wq[i], wClip[i] = uint8(p.Quantize(v)), p.Clipped(v)
	}

	flat := c.op.ForwardGEMMRef(xq, wq, rows, c.OutC, k, pw, px, c.Bias.Value.Data)
	y = tensor.New(n, g.OutC, g.OutH, g.OutW)
	rowsToNCHWInto(y, flat, n, g)

	dyFlat := tensor.New(rows, c.OutC)
	nchwToRowsInto(dyFlat, dy, g)
	dw, dxcols := c.op.BackwardGEMMRef(dyFlat.Data, xq, wq, xClip, wClip, rows, c.OutC, k, pw, px)
	dx = col2imRows(tensor.FromData(dxcols, rows, k), n, g)
	db = make([]float32, c.OutC)
	for r := 0; r < rows; r++ {
		for oc := range db {
			db[oc] += dyFlat.Data[r*c.OutC+oc]
		}
	}
	return y, dx, dw, db
}

// requireSlicedBackward runs l's backward over the training batch
// (x, dy) once with slice boundaries (SetSlices; slices of
// min(8, n/2) images, the last one short where n demands) and then
// once per slice alone, each from zeroed gradients, and requires the
// two to agree bit for bit on every slice's parameter gradients and on
// the input gradient. An observed layer's observer is deferred meanwhile,
// so every forward quantizes alike, and the gradients are restored.
func requireSlicedBackward(t *testing.T, l Layer, x, dy *tensor.Tensor) {
	t.Helper()
	if ol, ok := l.(ObservedLayer); ok {
		ol.SetDeferObserve(true)
		defer ol.SetDeferObserve(false)
	}
	for _, p := range l.Params() {
		defer copy(p.Grad.Data, p.Grad.Clone().Data)
	}
	n, step := x.Shape[0], max(1, min(8, x.Shape[0]/2))
	bounds := []int{0}
	for lo := step; lo < n; lo += step {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, n)
	params, numel := l.Params(), 0
	for _, p := range params {
		numel += p.Value.Numel()
	}
	grads := make([][]float32, len(bounds)-1)
	for s := range grads {
		grads[s] = make([]float32, numel)
	}
	SetSlices(params, bounds, 0, grads)
	l.Forward(x, true)
	dx := l.Backward(dy).Clone()
	SetSlices(params, nil, 0, nil)
	for s := range grads {
		lo, hi := bounds[s], bounds[s+1]
		what := fmt.Sprintf("slice %d of %v", s, bounds)
		l.Forward(tensor.ViewRows(x, lo, hi), true)
		ZeroGrads(l)
		gotDX := l.Backward(tensor.ViewRows(dy, lo, hi))
		requireSameBits(t, what+" dx", tensor.ViewRows(dx, lo, hi).Data, gotDX.Data)
		off := 0
		for _, p := range params {
			requireSameBits(t, what+" "+p.Name, grads[s][off:off+p.Value.Numel()], p.Grad.Data)
			off += p.Value.Numel()
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (bits %#x), oracle %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestApproxConvByteFirstMatchesPatchFormulation pins the byte-first,
// k-major layer — quantize once per input element, k-major byte im2col,
// NCHW epilogue, k-major col2im, mask dx after it — to the
// per-patch-entry row-major formulation bit for bit on y, dx, dW and
// db, over the geometry, quantization-scheme and estimator table, with
// inputs that clip on both sides (also on the image border, next to
// padding) and with dense and sparse upstream gradients. Every kernel
// tier is reached through the layer (checked at the end): forward arith
// (rows >= 32), arith_skinny (rows < 32 <= outC) and packed16; backward
// affine (ste), fused (smoothdiff),
// mixed (cvste) and small; output channel counts below, at and off the
// dW kernels' eight lanes; row counts off the 32-row SIMD chunk; and
// images whose OutH*OutW does not divide the 64-row forward tile, so
// the NCHW epilogue crosses an image boundary mid-tile; and geometries
// with dead taps — kernel taps that see only padding, whose columns the
// GEMMs leave out (weightSide.cut) — down to one where every tap is
// dead. The same table checks Infer against Forward(x, false), and one
// backward with slice boundaries against the per-slice backwards
// (requireSlicedBackward), down to a short last slice.
func TestApproxConvByteFirstMatchesPatchFormulation(t *testing.T) {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	cvste, err := gradient.ParseEstimator(gradient.EstCVSTE)
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		op   *Op
	}{
		{"ste", STEOp(e.Mult)},
		{"smoothdiff", DifferenceOp(e.Mult, 6)},
		{"cvste", EstimatorOp(e.Mult, cvste, e.HWS)},
	}
	geoms := []struct{ n, inC, h, w, outC, k, stride, pad int }{
		{2, 3, 8, 8, 4, 3, 1, 1},
		{2, 3, 9, 6, 8, 3, 2, 1},
		{1, 1, 7, 10, 5, 5, 1, 2},
		{3, 2, 11, 7, 3, 5, 2, 2},
		{2, 4, 6, 9, 6, 1, 1, 0},
		{1, 2, 8, 5, 9, 1, 2, 0},
		{2, 2, 7, 7, 4, 3, 1, 0},
		{1, 3, 6, 6, 16, 3, 1, 2},
		{2, 2, 10, 9, 8, 3, 1, 1},   // rows 180: one full lane group
		{2, 3, 9, 7, 12, 3, 1, 1},   // rows 126, 63 per image; lanes 0-7 + 4-11
		{3, 2, 6, 7, 24, 3, 1, 1},   // rows 126, 42 per image; three lane groups
		{2, 1, 12, 11, 16, 5, 2, 2}, // rows 72, odd k = 25
		{1, 2, 4, 4, 40, 3, 1, 1},   // rows 16 < 32 <= outC: the skinny row, one lane group + 8 tail channels
		{2, 3, 3, 3, 64, 3, 1, 1},   // rows 18, odd k = 27, two lane groups, an image boundary mid-tile
		// Dead taps: kernel taps that see only padding, left out of the GEMMs.
		{2, 3, 1, 1, 8, 3, 1, 1},  // 1x1 planes: the centre tap alone is live
		{2, 2, 1, 5, 6, 3, 1, 1},  // 1x5: the middle kernel row is live
		{3, 2, 5, 1, 9, 3, 1, 1},  // 5x1: the middle kernel column is live
		{2, 2, 2, 2, 8, 5, 1, 2},  // 5x5/pad 2 on 2x2: the inner 3x3 taps are live
		{4, 3, 1, 1, 8, 3, 2, 1},  // stride 2 on 1x1: the centre tap alone is live
		{1, 4, 1, 1, 40, 3, 1, 1}, // batch 1: one row, the skinny row in Forward and Infer
		{2, 2, 1, 1, 4, 1, 2, 1},  // 1x1 kernel, stride 2, pad 1 on 1x1: every tap is dead
		{20, 3, 1, 1, 8, 3, 1, 1}, // batch 20: sliced backward over 8/8/4 images
	}
	reached := map[string]bool{}
	for _, o := range ops {
		for _, gm := range geoms {
			for _, perChannel := range []bool{false, true} {
				name := fmt.Sprintf("%s/n%d_c%d_%dx%d_oc%d_k%d_s%d_p%d/perchannel=%v",
					o.name, gm.n, gm.inC, gm.h, gm.w, gm.outC, gm.k, gm.stride, gm.pad, perChannel)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(gm.n*1000 + gm.h*10 + gm.k)))
					c := NewApproxConv2D("c", gm.inC, gm.outC, gm.k, gm.stride, gm.pad, o.op, rng)
					c.PerChannel = perChannel
					c.Bias.Value.RandNormal(rng, 0.1)

					// Calibrate on a narrow batch, then step on a wide one: the
					// moving-average range covers a fraction of it, so the
					// input clips below and above.
					calib := tensor.New(gm.n, gm.inC, gm.h, gm.w)
					calib.RandNormal(rng, 0.3)
					c.Forward(calib, true)
					x := tensor.New(gm.n, gm.inC, gm.h, gm.w)
					x.RandNormal(rng, 2)
					x.Data[0], x.Data[len(x.Data)-1] = -50, 50 // corners: clipped border elements

					for _, nzOf := range []int{1, 8} {
						got := c.Forward(x, true)
						dy := tensor.New(got.Shape...)
						for i := range dy.Data {
							if rng.Intn(nzOf) == 0 {
								dy.Data[i] = float32(rng.NormFloat64())
							}
						}
						bwd := c.op.BackwardPath(dy.Data)
						if sparse := bwd == BwdPathSmall; sparse != (nzOf == 8) {
							t.Fatalf("1-in-%d gradient: small path %v", nzOf, sparse)
						}
						reached["bwd "+bwd] = true
						reached["fwd "+c.op.ForwardPath(len(dy.Data)/gm.outC, gm.outC, c.w.kl)] = true
						if len(c.w.dead) > 0 {
							reached["dead taps"] = true
						}
						var low, high int
						for i, cl := range c.xClip {
							if cl && c.xq[i] == 0 {
								low++
							} else if cl {
								high++
							}
						}
						if low == 0 || high == 0 || !c.xClip[0] || !c.xClip[len(c.xClip)-1] {
							t.Fatalf("input clips %d low, %d high, corners %v %v; want all of them",
								low, high, c.xClip[0], c.xClip[len(c.xClip)-1])
						}

						ZeroGrads(c)
						gotDX := c.Backward(dy)
						wantY, wantDX, wantDW, wantDB := convOracle(c, x, dy)
						requireSameBits(t, "y", got.Data, wantY.Data)
						requireSameBits(t, "dx", gotDX.Data, wantDX.Data)
						requireSameBits(t, "dW", c.Weight.Grad.Data, wantDW)
						requireSameBits(t, "db", c.Bias.Grad.Data, wantDB)
						requireSlicedBackward(t, c, x, dy)
					}

					want := c.Forward(x, false).Clone()
					requireSameBits(t, "Infer", c.Infer(x).Data, want.Data)
				})
			}
		}
	}
	// Every label of both ladders, less what this table cannot reach: it
	// has no LUT-less op, and the arith rows need AVX2.
	tiers := []string{}
	for _, l := range fwdLabels() {
		if l != FwdPathBehavioral && (l != FwdPathArith && l != FwdPathArithSkinny || hasGemmAsm) {
			tiers = append(tiers, "fwd "+l)
		}
	}
	for _, l := range bwdLabels() {
		tiers = append(tiers, "bwd "+l)
	}
	tiers = append(tiers, "dead taps")
	for _, tier := range tiers {
		if !reached[tier] {
			t.Errorf("no case of the table dispatched to %q", tier)
		}
	}
}

// TestApproxConvDeadTapsFollowGeometry runs one layer on weights of one
// version across input planes whose dead taps differ — 1x1 (one live
// tap), 1x4 (three), 4x4 (none) and back — so the weight side re-cuts
// its view of the same levels each time, and pins every pass to the
// patch formulation; Infer in between reads the view a Forward cut.
func TestApproxConvDeadTapsFollowGeometry(t *testing.T) {
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	rng := rand.New(rand.NewSource(5))
	c := NewApproxConv2D("c", 3, 8, 3, 1, 1, DifferenceOp(e.Mult, 6), rng)
	calib := tensor.New(2, 3, 4, 4)
	calib.RandNormal(rng, 1)
	c.Forward(calib, true)
	for _, hw := range [][2]int{{1, 1}, {1, 4}, {4, 4}, {1, 1}, {4, 1}} {
		x := tensor.New(2, 3, hw[0], hw[1])
		x.RandNormal(rng, 1)
		inferred := c.Infer(x).Clone()
		got := c.Forward(x, false)
		requireSameBits(t, fmt.Sprintf("%dx%d Infer", hw[0], hw[1]), inferred.Data, got.Data)
		got = c.Forward(x, true)
		dy := tensor.New(got.Shape...)
		dy.RandNormal(rng, 1)
		ZeroGrads(c)
		gotDX := c.Backward(dy)
		wantY, wantDX, wantDW, wantDB := convOracle(c, x, dy)
		name := fmt.Sprintf("%dx%d", hw[0], hw[1])
		requireSameBits(t, name+" y", got.Data, wantY.Data)
		requireSameBits(t, name+" dx", gotDX.Data, wantDX.Data)
		requireSameBits(t, name+" dW", c.Weight.Grad.Data, wantDW)
		requireSameBits(t, name+" db", c.Bias.Grad.Data, wantDB)
	}
}

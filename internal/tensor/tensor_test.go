package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4)
	if x.Numel() != 24 {
		t.Fatalf("Numel = %d", x.Numel())
	}
	x.set(5, 1, 2, 3)
	if x.At(1, 2, 3) != 5 {
		t.Error("Set/At round trip failed")
	}
	if x.Data[1*12+2*4+3] != 5 {
		t.Error("row-major layout violated")
	}
}

func TestFromDataAndReshape(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromData(d, 2, 3)
	r := x.Reshape(3, 2)
	if r.At(2, 1) != 6 {
		t.Error("reshape changed layout")
	}
	r.set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Error("reshape should share data")
	}
	c := x.Clone()
	c.set(-1, 0, 0)
	if x.At(0, 0) != 99 {
		t.Error("clone shares data")
	}
}

func TestShapeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero dim", func() { New(2, 0) })
	mustPanic("empty shape", func() { New() })
	mustPanic("FromData mismatch", func() { FromData([]float32{1}, 2) })
	mustPanic("bad reshape", func() { New(4).Reshape(3) })
	x := New(2, 2)
	mustPanic("index arity", func() { x.At(1) })
	mustPanic("index range", func() { x.At(2, 0) })
}

func TestElementwiseOps(t *testing.T) {
	a := FromData([]float32{1, 2, 3}, 3)
	b := FromData([]float32{4, 5, 6}, 3)
	a.Add(b)
	if a.Data[0] != 5 || a.Data[2] != 9 {
		t.Errorf("Add: %v", a.Data)
	}
	a.AddScaled(b, -1)
	if a.Data[0] != 1 || a.Data[2] != 3 {
		t.Errorf("AddScaled: %v", a.Data)
	}
	a.Scale(2)
	if a.Data[1] != 4 {
		t.Errorf("Scale: %v", a.Data)
	}
	a.Zero()
	if a.Data[0] != 0 || a.Data[1] != 0 || a.Data[2] != 0 {
		t.Error("Zero failed")
	}
	a.Fill(3)
	if a.Data[0] != 3 || a.Data[1] != 3 || a.Data[2] != 3 {
		t.Error("Fill failed")
	}
}

// TestAllFinite plants every non-finite class at every position of
// every length 0-40 (the AVX2 blocks and the Go tail) among the finite
// boundary values, and requires AllFinite to say what
// math.IsNaN || math.IsInf says.
func TestAllFinite(t *testing.T) {
	finite := []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 1,
		math.MaxFloat32, -math.MaxFloat32, math.Float32frombits(0x00800000)}
	bad := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xffffffff)}
	for n := 0; n <= 40; n++ {
		x := make([]float32, n)
		for i := range x {
			x[i] = finite[i%len(finite)]
		}
		if !AllFinite(x) {
			t.Fatalf("length %d: finite values reported non-finite", n)
		}
		for i := range x {
			for _, b := range bad {
				keep := x[i]
				x[i] = b
				if AllFinite(x) {
					t.Fatalf("length %d: %#x at %d not found", n, math.Float32bits(b), i)
				}
				x[i] = keep
			}
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromData([]float32{-5, 2, 3}, 3)
	mn, mx := MinMax(x.Data)
	if mn != -5 || mx != 3 {
		t.Errorf("MinMax = %v,%v", mn, mx)
	}
}

// frozenMinMax is the scalar loop MinMax must reproduce, kept verbatim.
func frozenMinMax(data []float32) (mn, mx float32) {
	mn, mx = data[0], data[0]
	for _, v := range data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// TestMinMaxMatchesLoop requires MinMax to return the scalar loop's bits
// at every length from 1 to 67 (every lane and tail position), on data
// laced with both zeros in either order, NaNs of two payloads at index
// 0, in the middle and last, ±Inf and denormals, and on all-zero,
// all-negative and all-positive slices where the first zero decides.
func TestMinMaxMatchesLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan, nan2 := float32(math.NaN()), math.Float32frombits(0x7fc00123)
	inf := float32(math.Inf(1))
	specials := []float32{0, negZero, nan, nan2, inf, -inf, 1e-42, -1e-42, math.MaxFloat32, -math.MaxFloat32}
	check := func(x []float32) {
		t.Helper()
		mn, mx := MinMax(x)
		wmn, wmx := frozenMinMax(x)
		if math.Float32bits(mn) != math.Float32bits(wmn) || math.Float32bits(mx) != math.Float32bits(wmx) {
			t.Fatalf("MinMax(%v) = %v (%#x), %v (%#x); loop %v (%#x), %v (%#x)", x,
				mn, math.Float32bits(mn), mx, math.Float32bits(mx), wmn, math.Float32bits(wmn), wmx, math.Float32bits(wmx))
		}
	}
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 67; n++ {
		x := make([]float32, n)
		for trial := 0; trial < 200; trial++ {
			for i := range x {
				switch r := rng.Intn(8); {
				case r < 3:
					x[i] = specials[rng.Intn(len(specials))]
				case r < 5:
					x[i] = [2]float32{0, negZero}[rng.Intn(2)]
				default:
					x[i] = float32(rng.NormFloat64())
				}
			}
			check(x)
			// One sign only: the extreme on that side is a zero, and the
			// first zero the loop meets is the one it keeps.
			for i := range x {
				if math.Float32bits(x[i])&0x7fffffff < 0x7f800001 { // not NaN
					x[i] = float32(math.Abs(float64(x[i])))
					if x[i] == 0 && rng.Intn(2) == 0 {
						x[i] = negZero
					}
				}
			}
			check(x)
			for i := range x {
				if x[i] == x[i] && x[i] != 0 {
					x[i] = -x[i]
				}
			}
			check(x)
		}
		for _, pos := range []int{0, n / 2, n - 1} {
			for _, z := range [][2]float32{{0, negZero}, {negZero, 0}} {
				for i := range x {
					x[i] = z[i%2]
				}
				check(x)
				x[pos] = nan2
				check(x)
				x[pos] = -inf
				check(x)
				x[pos] = 1e-42
				check(x)
			}
		}
	}
}

func TestKaimingInitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(10000)
	x.KaimingInit(rng, 50)
	var mean, varr float64
	for _, v := range x.Data {
		mean += float64(v)
	}
	mean /= float64(x.Numel())
	for _, v := range x.Data {
		d := float64(v) - mean
		varr += d * d
	}
	varr /= float64(x.Numel())
	wantStd := math.Sqrt(2.0 / 50)
	if math.Abs(mean) > 0.01 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(math.Sqrt(varr)-wantStd) > 0.01 {
		t.Errorf("std = %v, want %v", math.Sqrt(varr), wantStd)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.set(s, i, j)
		}
	}
	return out
}

func randT(rng *rand.Rand, shape ...int) *Tensor {
	x := New(shape...)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

func TestGeometry(t *testing.T) {
	g := Geometry(3, 32, 32, 16, 3, 3, 1, 1)
	if g.OutH != 32 || g.OutW != 32 {
		t.Errorf("same-pad geometry: %dx%d", g.OutH, g.OutW)
	}
	g2 := Geometry(3, 32, 32, 16, 2, 2, 2, 0)
	if g2.OutH != 16 || g2.OutW != 16 {
		t.Errorf("stride-2 geometry: %dx%d", g2.OutH, g2.OutW)
	}
	if g.K() != 27 {
		t.Errorf("K = %d", g.K())
	}
	defer func() {
		if recover() == nil {
			t.Error("collapsing geometry accepted")
		}
	}()
	Geometry(1, 2, 2, 1, 5, 5, 1, 0)
}

// naiveConv computes a direct convolution for cross-checking im2col.
func naiveConv(x, w *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	out := New(n, g.OutC, g.OutH, g.OutW)
	for img := 0; img < n; img++ {
		for oc := 0; oc < g.OutC; oc++ {
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					var s float32
					for c := 0; c < g.InC; c++ {
						for ky := 0; ky < g.KH; ky++ {
							for kx := 0; kx < g.KW; kx++ {
								iy := oy*g.Stride - g.Pad + ky
								ix := ox*g.Stride - g.Pad + kx
								if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
									s += x.At(img, c, iy, ix) * w.At(oc, c, ky, kx)
								}
							}
						}
					}
					out.set(s, img, oc, oy, ox)
				}
			}
		}
	}
	return out
}

// im2colT runs the float32 k-major im2col into a new (K x rows) slice.
func im2colT(x *Tensor, g ConvGeom) []float32 {
	n := x.Shape[0]
	colsT := make([]float32, g.K()*n*g.OutH*g.OutW)
	var job Im2ColTJob[float32]
	job.Run(colsT, x.Data, n, g, 0)
	return colsT
}

func TestIm2ColConvolutionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct{ n, c, h, w, oc, k, stride, pad int }{
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 1, 5, 5, 2, 3, 2, 0},
		{3, 2, 7, 9, 5, 5, 1, 2},
	}
	for _, cse := range cases {
		g := Geometry(cse.c, cse.h, cse.w, cse.oc, cse.k, cse.k, cse.stride, cse.pad)
		x := randT(rng, cse.n, cse.c, cse.h, cse.w)
		wt := randT(rng, cse.oc, cse.c, cse.k, cse.k)
		rows := cse.n * g.OutH * g.OutW
		colsT := FromData(im2colT(x, g), g.K(), rows)
		flat := naiveMatMul(wt.Reshape(cse.oc, g.K()), colsT) // (outC, N*OH*OW)
		want := naiveConv(x, wt, g)
		for img := 0; img < cse.n; img++ {
			for oc := 0; oc < g.OutC; oc++ {
				for oy := 0; oy < g.OutH; oy++ {
					for ox := 0; ox < g.OutW; ox++ {
						row := (img*g.OutH+oy)*g.OutW + ox
						got := flat.At(oc, row)
						if math.Abs(float64(got-want.At(img, oc, oy, ox))) > 1e-3 {
							t.Fatalf("case %+v: conv mismatch at (%d,%d,%d,%d): %v vs %v",
								cse, img, oc, oy, ox, got, want.At(img, oc, oy, ox))
						}
					}
				}
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2ColT(x), y> == <x, Col2ImT(y)> for all x, y — the defining
	// property of a correct backward pass.
	rng := rand.New(rand.NewSource(5))
	g := Geometry(2, 6, 6, 3, 3, 3, 1, 1)
	n := 2
	x := randT(rng, n, 2, 6, 6)
	y := randT(rng, g.K(), n*g.OutH*g.OutW)
	ax := im2colT(x, g)
	var lhs, rhs float64
	for i := range ax {
		lhs += float64(ax[i]) * float64(y.Data[i])
	}
	ay := New(n, 2, 6, 6)
	var job Col2ImTJob
	job.Run(ay.Data, y.Data, n, g)
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(ay.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Errorf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

// patchGeoms is the geometry table of the im2col/col2im oracle tests.
// whole marks the geometries the k-major jobs move as whole planes
// (stride 1, output plane of the input plane's shape); the rest —
// some missing the predicate by one pad — take the per-row path.
var patchGeoms = []struct {
	n, c, h, w, k, stride, pad int
	whole                      bool
}{
	{2, 3, 8, 8, 3, 1, 1, true},
	{1, 1, 5, 5, 3, 2, 0, false},
	{3, 2, 7, 9, 5, 1, 2, true},
	{2, 2, 6, 4, 1, 1, 0, true}, // 1x1 kernel: the plane itself, no gaps
	{2, 2, 9, 6, 1, 2, 0, false},
	{1, 3, 5, 8, 3, 2, 1, false},
	{2, 1, 6, 7, 5, 2, 2, false},
	{1, 2, 4, 2, 3, 1, 1, true},
	{1, 1, 3, 3, 5, 1, 2, true},  // corner taps see only padding
	{2, 2, 6, 5, 3, 1, 2, false}, // pad reaches past the kernel centre
	{2, 2, 6, 5, 3, 1, 0, false}, // stride 1 but the plane shrinks
	{1, 2, 7, 6, 3, 2, 2, false},
	{2, 2, 6, 3, 3, 1, 0, false}, // OutW = 1
	{2, 3, 3, 3, 3, 1, 0, false}, // 1x1 spatial output
	{1, 2, 5, 5, 5, 2, 0, false},
	{2, 2, 16, 16, 3, 1, 1, true}, // the models' 3x3 convs
	{2, 2, 16, 16, 5, 1, 2, true}, // lenet's 5x5 convs
	{3, 2, 2, 2, 3, 1, 1, true},
	{3, 2, 1, 1, 3, 1, 1, true}, // only the centre tap is inside
	{2, 1, 2, 2, 5, 1, 2, true}, // kernel wider than the image
	{1, 2, 1, 7, 3, 1, 1, true},
	{2, 2, 8, 8, 3, 2, 1, false}, // stride 2 halves the plane
	{2, 3, 1, 1, 3, 2, 1, false}, // stride 2 on 1x1: the centre tap alone is live
	{2, 2, 1, 1, 1, 2, 1, false}, // every tap sees only padding
}

// TestIm2ColMatchesIndexOracle checks both instantiations of the k-major
// im2col — uint8 levels with a pad level, float32 values with pad 0 —
// entry by entry against the defining index arithmetic: kernel tap
// (c, ky, kx), patch position (img, oy, ox) holds input
// (img, c, oy*s-p+ky, ox*s-p+kx), or the pad value outside the image.
// Geometries cover strides 1/2, pads 0-2 (also past the kernel centre),
// 1x1 to 5x5 kernels, non-square inputs, a kernel wider than the image,
// one output column, a 1x1 output, a single channel and a single image.
func TestIm2ColMatchesIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const pad = 77
	negZero := float32(math.Copysign(0, -1))
	for _, cse := range patchGeoms {
		g := Geometry(cse.c, cse.h, cse.w, 1, cse.k, cse.k, cse.stride, cse.pad)
		if g.wholePlane() != cse.whole {
			t.Fatalf("case %+v: whole-plane path taken = %v", cse, g.wholePlane())
		}
		x := New(cse.n, cse.c, cse.h, cse.w)
		lv := make([]uint8, len(x.Data))
		for i := range lv {
			lv[i] = uint8(1 + rng.Intn(255))
			x.Data[i] = float32(lv[i])
			if rng.Intn(8) == 0 {
				x.Data[i] = -x.Data[i]
			}
		}
		x.Data[0] = negZero
		k := g.K()
		rows := cse.n * g.OutH * g.OutW
		colsF, colsU := make([]float32, k*rows), make([]uint8, k*rows)
		for i := range colsU {
			colsF[i], colsU[i] = 200, 200 // stale contents must be overwritten
		}
		var jobF Im2ColTJob[float32]
		jobF.Run(colsF, x.Data, cse.n, g, 0)
		var jobU Im2ColTJob[uint8]
		jobU.Run(colsU, lv, cse.n, g, pad)
		for img := 0; img < cse.n; img++ {
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					row := (img*g.OutH+oy)*g.OutW + ox
					for c := 0; c < cse.c; c++ {
						for ky := 0; ky < cse.k; ky++ {
							for kx := 0; kx < cse.k; kx++ {
								col := (c*cse.k+ky)*cse.k + kx
								iy, ix := oy*cse.stride-cse.pad+ky, ox*cse.stride-cse.pad+kx
								wantF, wantU := float32(0), uint8(pad)
								if iy >= 0 && iy < cse.h && ix >= 0 && ix < cse.w {
									in := ((img*cse.c+c)*cse.h+iy)*cse.w + ix
									wantF, wantU = x.Data[in], lv[in]
								}
								if got := colsF[col*rows+row]; math.Float32bits(got) != math.Float32bits(wantF) {
									t.Fatalf("case %+v: float32 cols[%d][%d] = %v, want %v", cse, col, row, got, wantF)
								}
								if got := colsU[col*rows+row]; got != wantU {
									t.Fatalf("case %+v: uint8 cols[%d][%d] = %d, want %d", cse, col, row, got, wantU)
								}
							}
						}
					}
				}
			}
		}
	}
}

// col2imLoopNest is the defining scatter of a row-major (rows x K)
// patch-matrix gradient: entries visited in ascending
// (img, oy, ox, c, ky, kx) order, each added to its input element, so
// every element adds its overlaps in ascending (oy, ox) order. Float
// addition does not reassociate, so the visiting order is part of the
// contract the conv layers' bit-identity guarantees rest on.
func col2imLoopNest(cols []float32, n int, g ConvGeom) []float32 {
	dx := make([]float32, n*g.InC*g.InH*g.InW)
	i := 0
	for img := 0; img < n; img++ {
		for oy := 0; oy < g.OutH; oy++ {
			for ox := 0; ox < g.OutW; ox++ {
				for c := 0; c < g.InC; c++ {
					for ky := 0; ky < g.KH; ky++ {
						for kx := 0; kx < g.KW; kx++ {
							iy, ix := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								dx[((img*g.InC+c)*g.InH+iy)*g.InW+ix] += cols[i]
							}
							i++
						}
					}
				}
			}
		}
	}
	return dx
}

// transposeT returns the (cols x rows) transpose of a row-major
// (rows x cols) matrix.
func transposeT(m []float32, rows, cols int) []float32 {
	t := make([]float32, len(m))
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			t[i*rows+r] = m[r*cols+i]
		}
	}
	return t
}

// TestCol2ImTMatchesCol2Im pins the k-major col2im bit for bit to the
// row-major scatter (col2imLoopNest) fed the same matrix untransposed:
// walking the kernel taps in descending (ky, kx) order must hand every
// input element its overlaps in ascending (oy, ox) order — on the
// whole-plane path too, whose extra +0 summands must change no bit (the
// matrix holds -0 entries, which only a wrongly ordered or wrongly
// zeroed sum would turn into +0 or back).
//
// It also states the job's contract on cols: Run consumes it. The
// whole-plane path zeroes entries that overhang the image (those inside
// the span it adds) and nothing else; the per-row path happens to leave
// everything — which doubles as the evidence of which path ran.
func TestCol2ImTMatchesCol2Im(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := float32(math.Copysign(0, -1))
	for _, cse := range patchGeoms {
		g := Geometry(cse.c, cse.h, cse.w, 1, cse.k, cse.k, cse.stride, cse.pad)
		rows, k := cse.n*g.OutH*g.OutW, g.K()
		cols := randT(rng, rows, k)
		for i := range cols.Data {
			if rng.Intn(8) == 0 {
				cols.Data[i] = negZero
			}
		}
		colsT := transposeT(cols.Data, rows, k)
		want := col2imLoopNest(cols.Data, cse.n, g)
		got := New(cse.n, cse.c, cse.h, cse.w)
		got.Fill(3) // stale contents must be cleared
		var job Col2ImTJob
		job.Run(got.Data, colsT, cse.n, g)
		for i := range want {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("case %+v: dx[%d] = %v, row-major col2im %v", cse, i, got.Data[i], want[i])
			}
		}
		zeroed := 0
		for r := 0; r < rows; r++ {
			oy, ox := r/g.OutW%g.OutH, r%g.OutW
			for i := 0; i < k; i++ {
				iy, ix := oy*cse.stride-cse.pad+i/cse.k%cse.k, ox*cse.stride-cse.pad+i%cse.k
				before, after := math.Float32bits(cols.Data[r*k+i]), math.Float32bits(colsT[i*rows+r])
				if before == after {
					continue
				}
				if after != 0 || (iy >= 0 && iy < cse.h && ix >= 0 && ix < cse.w) {
					t.Fatalf("case %+v: Run turned cols[%d][%d] from %#x into %#x", cse, i, r, before, after)
				}
				zeroed++
			}
		}
		// Gaps exist once a tap beside the centre column spans two rows.
		if wantZeroed := cse.whole && cse.k > 1 && cse.h > 1 && cse.w > 1; (zeroed > 0) != wantZeroed {
			t.Fatalf("case %+v: Run zeroed %d entries of cols; whole-plane path expected = %v", cse, zeroed, wantZeroed)
		}
	}
}

// TestCol2ImMatchesLoopNest pins the k-major col2im to the defining
// scatter on non-finite entries as well: ±Inf and NaN patch entries must
// reach exactly the input elements the loop nest sends them to — an
// overhanging entry the whole-plane path failed to zero would turn its
// neighbour into Inf or NaN. (Which NaN payload survives a sum of two
// NaNs depends on the operand order the compiler picks for a commuted
// add, so NaNs compare as NaN.)
func TestCol2ImMatchesLoopNest(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inf := float32(math.Inf(1))
	for _, cse := range patchGeoms {
		g := Geometry(cse.c, cse.h, cse.w, 1, cse.k, cse.k, cse.stride, cse.pad)
		rows, k := cse.n*g.OutH*g.OutW, g.K()
		cols := randT(rng, rows, k)
		for i := range cols.Data {
			switch rng.Intn(16) {
			case 0:
				cols.Data[i] = inf
			case 1:
				cols.Data[i] = -inf
			case 2:
				cols.Data[i] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<22)))
			}
		}
		want := col2imLoopNest(cols.Data, cse.n, g)
		got := New(cse.n, cse.c, cse.h, cse.w)
		var job Col2ImTJob
		job.Run(got.Data, transposeT(cols.Data, rows, k), cse.n, g)
		for i, w := range want {
			v := got.Data[i]
			if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
				t.Fatalf("case %+v: dx[%d] = %v, loop nest %v", cse, i, v, w)
			}
		}
	}
}

// TestLiveRowsMatchAllRows pins the live-rows layout of both jobs to the
// all-rows one: LiveTaps names exactly the taps whose row in Run's
// matrix holds an input element somewhere, RunLive writes Run's matrix
// with the other rows — pad alone — left out, and Col2ImTJob.RunLive on
// those live rows gives Run's input gradient bit for bit, a dead row
// landing nowhere.
func TestLiveRowsMatchAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const pad = 77
	for _, cse := range patchGeoms {
		g := Geometry(cse.c, cse.h, cse.w, 1, cse.k, cse.k, cse.stride, cse.pad)
		rows, nt := cse.n*g.OutH*g.OutW, cse.k*cse.k
		lv := make([]uint8, cse.n*cse.c*cse.h*cse.w)
		for i := range lv {
			lv[i] = uint8(rng.Intn(pad)) // never the pad level
		}
		var job Im2ColTJob[uint8]
		all := make([]uint8, g.K()*rows)
		job.Run(all, lv, cse.n, g, pad)
		live := g.LiveTaps(nil)
		got := make([]uint8, cse.c*len(live)*rows)
		job.RunLive(got, lv, cse.n, g, pad)
		var want []uint8
		for i := 0; i < g.K(); i++ {
			row := all[i*rows : (i+1)*rows]
			seen := slices.ContainsFunc(row, func(v uint8) bool { return v != pad })
			if isLive := slices.Contains(live, i%nt); seen != isLive {
				t.Fatalf("case %+v: tap %d of channel %d reads input %v, LiveTaps %v", cse, i%nt, i/nt, seen, live)
			}
			if seen {
				want = append(want, row...)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("case %+v: RunLive differs from Run's live rows", cse)
		}

		cols := randT(rng, g.K(), rows).Data
		var liveCols []float32
		for i := 0; i < g.K(); i++ {
			if slices.Contains(live, i%nt) {
				liveCols = append(liveCols, cols[i*rows:(i+1)*rows]...)
			}
		}
		dxAll, dxLive := New(cse.n, cse.c, cse.h, cse.w), New(cse.n, cse.c, cse.h, cse.w)
		var col2im Col2ImTJob
		col2im.Run(dxAll.Data, cols, cse.n, g)
		col2im.RunLive(dxLive.Data, liveCols, cse.n, g)
		for i, v := range dxAll.Data {
			if math.Float32bits(dxLive.Data[i]) != math.Float32bits(v) {
				t.Fatalf("case %+v: RunLive dx[%d] = %v, Run %v", cse, i, dxLive.Data[i], v)
			}
		}
	}
}

// TestAddIntoMatchesLoop pins addInto (AVX2 blocks plus Go tail, or
// under -tags purego the Go loop alone) bit for bit to dst[i] += src[i]
// at every length that moves the block/tail split, on operands that
// include ±0, ±Inf, NaN and denormals.
func TestAddIntoMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inf := float32(math.Inf(1))
	special := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, float32(math.NaN()), 1e-42, -1e-42, math.MaxFloat32}
	for n := 0; n <= 40; n++ {
		dst, src := make([]float32, n), make([]float32, n)
		for i := range dst {
			dst[i], src[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				dst[i] = special[rng.Intn(len(special))]
			}
			if rng.Intn(3) == 0 {
				src[i] = special[rng.Intn(len(special))]
			}
		}
		want := append([]float32(nil), dst...)
		for i := range want {
			want[i] += src[i]
		}
		addInto(dst, src)
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %v (%#x), loop %v (%#x)", n, i, dst[i], math.Float32bits(dst[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// set writes the element at a multi-index.
func (t *Tensor) set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

// rowMajorConv2D is the float Conv2D as it was before it moved onto the
// k-major data path, kept verbatim as the oracle of
// TestConv2DMatchesRowMajor and the baseline BenchmarkConv2DStep times
// the layer against: im2col into a (rows x K) patch matrix, the tensor
// GEMMs on row-major matrices, the NCHW <-> rows shuffles and the
// row-major col2im — all with the parallel dispatch they had. The GEMMs
// are tensor's, which no layer calls any more, kept below verbatim.
type rowMajorConv2D struct {
	InC, OutC      int
	K, Stride, Pad int
	Weight, Bias   *Param
	geom           tensor.ConvGeom
	batch          int

	cols   *tensor.Tensor
	flat   *tensor.Tensor
	y      *tensor.Tensor
	dyFlat *tensor.Tensor
	dwFlat *tensor.Tensor
	dcols  *tensor.Tensor
	dx     *tensor.Tensor
}

// rowMajorOf returns the oracle of c, on copies of its parameters
// (values and gradients), so both can step independently.
func rowMajorOf(c *Conv2D) *rowMajorConv2D {
	cp := func(p *Param) *Param {
		q := newParam(p.Name, p.Value.Shape...)
		copy(q.Value.Data, p.Value.Data)
		copy(q.Grad.Data, p.Grad.Data)
		return q
	}
	return &rowMajorConv2D{InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		Weight: cp(c.Weight), Bias: cp(c.Bias)}
}

func (c *rowMajorConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	g := tensor.Geometry(c.InC, x.Shape[2], x.Shape[3], c.OutC, c.K, c.K, c.Stride, c.Pad)
	c.geom = g
	c.batch = x.Shape[0]
	rows := c.batch * g.OutH * g.OutW
	c.cols = tensor.Ensure2(c.cols, rows, g.K())
	im2colRowsInto(c.cols, x, g)
	w2 := c.Weight.Value.Reshape(c.OutC, g.K())
	c.flat = tensor.Ensure2(c.flat, rows, c.OutC)
	var mm matMulTransBJob // what tensor.MatMulTransBInto ran
	mm.Run(c.flat, c.cols, w2)
	for r := 0; r < rows; r++ {
		for oc := 0; oc < c.OutC; oc++ {
			c.flat.Data[r*c.OutC+oc] += c.Bias.Value.Data[oc]
		}
	}
	c.y = tensor.Ensure4(c.y, c.batch, g.OutC, g.OutH, g.OutW)
	rowsToNCHWInto(c.y, c.flat, c.batch, g)
	return c.y
}

func (c *rowMajorConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.geom
	rows := c.batch * g.OutH * g.OutW
	c.dyFlat = tensor.Ensure2(c.dyFlat, rows, c.OutC)
	nchwToRowsInto(c.dyFlat, dy, g)
	// Weight gradient: dW = dyFlatᵀ (outC x rows) * cols (rows x K).
	c.dwFlat = tensor.Ensure2(c.dwFlat, c.OutC, g.K())
	matMulTransAInto(c.dwFlat, c.dyFlat, c.cols)
	for i, v := range c.dwFlat.Data {
		c.Weight.Grad.Data[i] += v
	}
	// Bias gradient.
	for r := 0; r < rows; r++ {
		for oc := 0; oc < c.OutC; oc++ {
			c.Bias.Grad.Data[oc] += c.dyFlat.Data[r*c.OutC+oc]
		}
	}
	// Input gradient.
	w2 := c.Weight.Value.Reshape(c.OutC, g.K())
	c.dcols = tensor.Ensure2(c.dcols, rows, g.K())
	matMulInto(c.dcols, c.dyFlat, w2)
	c.dx = tensor.Ensure4(c.dx, c.batch, g.InC, g.InH, g.InW)
	col2imRowsInto(c.dx, c.dcols, c.batch, g)
	return c.dx
}

// matMulInto computes A (m x k) times B (k x n) into dst (m x n),
// overwriting it: tensor.MatMulInto, the GEMM under the float layers'
// row-major input gradients.
func matMulInto(dst, a, b *tensor.Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v x %v", a.Shape, b.Shape))
	}
	checkDst(dst, m, n)
	tensor.ParallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := a.Data[i*k : (i+1)*k]
			or := dst.Data[i*n : (i+1)*n]
			for j := range or {
				or[j] = 0
			}
			for p, av := range ar {
				if av == 0 {
					continue
				}
				br := b.Data[p*n : (p+1)*n]
				for j, bv := range br {
					or[j] += av * bv
				}
			}
		}
	})
}

// matMulTransBJob computes A (m x k) times Bᵀ (B is n x k) into a
// caller-owned destination without materializing the transpose:
// tensor.MatMulTransBJob.
type matMulTransBJob struct {
	dst, a, b *tensor.Tensor
}

// Run computes A (m x k) times Bᵀ (B is n x k) into dst (m x n).
func (mm *matMulTransBJob) Run(dst, a, b *tensor.Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransB needs 2-D operands")
	}
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimensions differ: %v x %v^T", a.Shape, b.Shape))
	}
	checkDst(dst, a.Shape[0], b.Shape[0])
	mm.dst, mm.a, mm.b = dst, a, b
	tensor.ParallelRowsOn(a.Shape[0], mm)
}

// RunRange implements RangeRunner over the rows of A.
func (mm *matMulTransBJob) RunRange(lo, hi int) {
	a, b, dst := mm.a, mm.b, mm.dst
	k, n := a.Shape[1], b.Shape[0]
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		or := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var s float32
			for p := range ar {
				s += ar[p] * br[p]
			}
			or[j] = s
		}
	}
}

// matMulTransAInto computes Aᵀ B (A is k x m, B is k x n) into dst
// (m x n): tensor.MatMulTransAInto, the weight-gradient GEMM.
func matMulTransAInto(dst, a, b *tensor.Tensor) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransA needs 2-D operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA outer dimensions differ: %v^T x %v", a.Shape, b.Shape))
	}
	checkDst(dst, m, n)
	tensor.ParallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			or := dst.Data[i*n : (i+1)*n]
			for j := range or {
				or[j] = 0
			}
			for p := 0; p < k; p++ {
				av := a.Data[p*m+i]
				if av == 0 {
					continue
				}
				br := b.Data[p*n : (p+1)*n]
				for j, bv := range br {
					or[j] += av * bv
				}
			}
		}
	})
}

func checkDst(dst *tensor.Tensor, m, n int) {
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d]", dst.Shape, m, n))
	}
}

// rowsToNCHWInto converts a (N*OH*OW, outC) matrix into NCHW in dst.
func rowsToNCHWInto(dst, flat *tensor.Tensor, n int, g tensor.ConvGeom) {
	hw := g.OutH * g.OutW
	for img := 0; img < n; img++ {
		for p := 0; p < hw; p++ {
			row := img*hw + p
			for oc := 0; oc < g.OutC; oc++ {
				dst.Data[(img*g.OutC+oc)*hw+p] = flat.Data[row*g.OutC+oc]
			}
		}
	}
}

// nchwToRowsInto converts NCHW into the (N*OH*OW, outC) row layout in
// dst.
func nchwToRowsInto(dst, x *tensor.Tensor, g tensor.ConvGeom) {
	n := x.Shape[0]
	hw := g.OutH * g.OutW
	for img := 0; img < n; img++ {
		for p := 0; p < hw; p++ {
			row := img*hw + p
			for oc := 0; oc < g.OutC; oc++ {
				dst.Data[row*g.OutC+oc] = x.Data[(img*g.OutC+oc)*hw+p]
			}
		}
	}
}

// im2colRows expands an NCHW batch into its (N*outH*outW, K) patch
// matrix: row (img, oy, ox), column (c, ky, kx) holds input
// (img, c, oy*s-p+ky, ox*s-p+kx), and +0 where the patch overhangs the
// image.
func im2colRows(x *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	cols := tensor.New(x.Shape[0]*g.OutH*g.OutW, g.K())
	im2colRowsInto(cols, x, g)
	return cols
}

// im2colRowsInto is im2colRows writing into dst, one image per pool
// block and one kernel row (KW entries) per step.
func im2colRowsInto(dst, x *tensor.Tensor, g tensor.ConvGeom) {
	tensor.ParallelRows(x.Shape[0], func(lo, hi int) {
		k := g.K()
		hw := g.InH * g.InW
		for img := lo; img < hi; img++ {
			base := img * g.InC * hw
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					row := ((img*g.OutH+oy)*g.OutW + ox) * k
					ix0 := ox*g.Stride - g.Pad
					inside := ix0 >= 0 && ix0+g.KW <= g.InW
					for c := 0; c < g.InC; c++ {
						cbase := base + c*hw
						for ky := 0; ky < g.KH; ky++ {
							d := dst.Data[row : row+g.KW]
							row += g.KW
							iy := oy*g.Stride - g.Pad + ky
							if iy < 0 || iy >= g.InH {
								clear(d)
								continue
							}
							s := x.Data[cbase+iy*g.InW : cbase+(iy+1)*g.InW]
							if inside {
								copy(d, s[ix0:])
								continue
							}
							for i := range d {
								if ix := ix0 + i; ix >= 0 && ix < g.InW {
									d[i] = s[ix]
								} else {
									d[i] = 0
								}
							}
						}
					}
				}
			}
		}
	})
}

// col2imRows scatters a (N*outH*outW, K) patch-matrix gradient into a
// new NCHW input gradient, the adjoint of im2colRows.
func col2imRows(cols *tensor.Tensor, n int, g tensor.ConvGeom) *tensor.Tensor {
	dst := tensor.New(n, g.InC, g.InH, g.InW)
	col2imRowsInto(dst, cols, n, g)
	return dst
}

// col2imRowsInto is col2imRows writing into (and first zeroing) dst, one
// image per pool block: patch entries are visited in ascending
// (oy, ox, c, ky, kx) order, so every input element adds its overlaps
// in ascending (oy, ox) order.
func col2imRowsInto(dst, cols *tensor.Tensor, n int, g tensor.ConvGeom) {
	k := g.K()
	chw := g.InC * g.InH * g.InW
	tensor.ParallelRows(n, func(lo, hi int) {
		hw := g.InH * g.InW
		for img := lo; img < hi; img++ {
			base := img * chw
			clear(dst.Data[base : base+chw])
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					row := ((img*g.OutH+oy)*g.OutW + ox) * k
					ix0 := ox*g.Stride - g.Pad
					inside := ix0 >= 0 && ix0+g.KW <= g.InW
					for c := 0; c < g.InC; c++ {
						cbase := base + c*hw
						for ky := 0; ky < g.KH; ky++ {
							s := cols.Data[row : row+g.KW]
							row += g.KW
							iy := oy*g.Stride - g.Pad + ky
							if iy < 0 || iy >= g.InH {
								continue
							}
							d := dst.Data[cbase+iy*g.InW : cbase+(iy+1)*g.InW]
							if inside {
								d = d[ix0 : ix0+g.KW]
								for i, v := range s {
									d[i] += v
								}
								continue
							}
							for i, v := range s {
								if ix := ix0 + i; ix >= 0 && ix < g.InW {
									d[ix] += v
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestConv2DMatchesRowMajor pins the k-major Conv2D to the row-major
// formulation bit for bit on y, dx, dW and db over whole-plane and
// strided geometries — pad past the kernel centre, 1x1 kernels and 1x1
// outputs, OutW = 1, 2x2 planes, batch 1 and 3, a forward row block
// ending mid-plane, k below and above the pool's inline cutoff — with
// two accumulating steps (the gradients start nonzero) per upstream
// gradient: dense, dense with ±0 entries, and exactly a quarter nonzero
// among ±0 — both sides of sparseGrad. The inputs hold -0 entries too.
func TestConv2DMatchesRowMajor(t *testing.T) {
	geoms := []struct{ n, inC, h, w, outC, k, stride, pad int }{
		{3, 3, 8, 8, 4, 3, 1, 1},
		{1, 2, 7, 9, 5, 5, 1, 2},
		{3, 2, 6, 5, 3, 3, 1, 2}, // pad past the kernel centre
		{1, 4, 6, 4, 6, 1, 1, 0}, // 1x1 kernel
		{3, 2, 9, 6, 4, 1, 2, 0},
		{1, 2, 6, 3, 3, 3, 1, 0}, // OutW = 1
		{3, 3, 9, 7, 8, 3, 2, 1},
		{3, 32, 2, 2, 9, 3, 1, 1},   // 2x2 planes, k = 288
		{3, 1, 1, 1, 5, 3, 1, 1},    // 1x1 spatial: only the centre tap
		{3, 3, 12, 12, 17, 3, 1, 1}, // rows 432: two forward row blocks, split mid-plane
	}
	negZero := float32(math.Copysign(0, -1))
	dys := []struct {
		name   string
		sparse bool
		fill   func(rng *rand.Rand, i int) float32
	}{
		{"dense", false, func(rng *rand.Rand, i int) float32 { return float32(rng.NormFloat64()) }},
		{"dense±0", false, func(rng *rand.Rand, i int) float32 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return negZero
			}
			return float32(rng.NormFloat64())
		}},
		{"1in4", true, func(rng *rand.Rand, i int) float32 {
			switch {
			case i%4 == 3:
				return float32(rng.NormFloat64())
			case rng.Intn(2) == 0:
				return negZero
			}
			return 0
		}},
	}
	for _, gm := range geoms {
		for _, d := range dys {
			name := fmt.Sprintf("n%d_c%d_%dx%d_oc%d_k%d_s%d_p%d/%s", gm.n, gm.inC, gm.h, gm.w, gm.outC, gm.k, gm.stride, gm.pad, d.name)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gm.n*1000 + gm.h*10 + gm.k)))
				c := NewConv2D("c", gm.inC, gm.outC, gm.k, gm.stride, gm.pad, rng)
				c.Bias.Value.RandNormal(rng, 0.1)
				c.Weight.Grad.RandNormal(rng, 0.1)
				c.Bias.Grad.RandNormal(rng, 0.1)
				o := rowMajorOf(c)
				for step := 0; step < 2; step++ {
					x := tensor.New(gm.n, gm.inC, gm.h, gm.w)
					x.RandNormal(rng, 1)
					for i := range x.Data {
						if rng.Intn(8) == 0 {
							x.Data[i] = negZero
						}
					}
					y := c.Forward(x, true)
					requireSameBits(t, "y", y.Data, o.Forward(x).Data)
					dy := tensor.New(y.Shape...)
					for i := range dy.Data {
						dy.Data[i] = d.fill(rng, i)
					}
					if sparseGrad(dy.Data) != d.sparse {
						t.Fatalf("sparseGrad = %v, want %v", !d.sparse, d.sparse)
					}
					requireSameBits(t, "dx", c.Backward(dy).Data, o.Backward(dy).Data)
					requireSameBits(t, "dW", c.Weight.Grad.Data, o.Weight.Grad.Data)
					requireSameBits(t, "db", c.Bias.Grad.Data, o.Bias.Grad.Data)
				}
			})
		}
	}
}

// TestConv2DStepNoSteadyStateAllocs pins the float conv step at zero
// heap allocations once its arena has grown, on the pooled dispatch
// path and on both backward paths.
func TestConv2DStepNoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact count holds only without -race")
	}
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			layer := NewConv2D("alloc", 16, 32, 3, 1, 1, rng)
			x := tensor.New(4, 16, 16, 16)
			x.RandNormal(rng, 1)
			dy := tensor.New(layer.Forward(x, true).Shape...)
			dy.RandNormal(rng, 1)
			for i := range dy.Data {
				if sparse && i%8 != 0 {
					dy.Data[i] = 0
				}
			}
			for i := 0; i < 3; i++ {
				layer.Forward(x, true)
				layer.Backward(dy)
			}
			allocs := testing.AllocsPerRun(10, func() {
				layer.Forward(x, true)
				layer.Backward(dy)
			})
			if allocs != 0 {
				t.Fatalf("steady-state float conv step allocates %.1f times per step, want 0", allocs)
			}
		})
	}
}

// floatConvShapes are the float conv steps BenchmarkConv2DStep and
// cmd/benchkernels' Layer_FloatConvStep_* rows time: the geometries of
// the benchmark models' conv layers (stride 1, pad k/2) with the
// upstream gradient they see — dense behind a batch norm, pooled behind
// ReLU + 2x2 max pool.
var floatConvShapes = []struct {
	name                string
	inC, outC, k, n, hw int
	pooled              bool
}{
	{"VGG11Conv1", 3, 8, 3, 8, 32, false},
	{"ResNet18Stem", 3, 8, 3, 16, 16, false},
	{"ResNet18Stage1", 8, 8, 3, 16, 16, false},
	{"VGG11Conv5", 32, 64, 3, 32, 2, false},
	{"LeNetConv2", 4, 4, 5, 16, 8, true},
}

// BenchmarkConv2DStep times one Forward+Backward of the float conv layer
// and of its row-major oracle at each of floatConvShapes, so the two can
// be compared in alternating runs of one binary:
//
//	go test -run '^$' -bench Conv2DStep -count 1 ./internal/nn/
func BenchmarkConv2DStep(b *testing.B) {
	for _, sh := range floatConvShapes {
		rng := rand.New(rand.NewSource(5))
		layer := NewConv2D("bench", sh.inC, sh.outC, sh.k, 1, sh.k/2, rng)
		oracle := rowMajorOf(layer)
		x := tensor.New(sh.n, sh.inC, sh.hw, sh.hw)
		x.RandNormal(rng, 1)
		dy := tensor.New(layer.Forward(x, true).Shape...)
		dy.RandNormal(rng, 1)
		if sh.pooled {
			poolGrad(dy.Data, sh.hw, rng)
		}
		b.Run(sh.name+"/layer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.Forward(x, true)
				layer.Backward(dy)
			}
		})
		b.Run(sh.name+"/rowmajor", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oracle.Forward(x)
				oracle.Backward(dy)
			}
		})
	}
}

// poolGrad thins dy (NCHW planes of hw x hw) to what conv -> ReLU ->
// 2x2 max pool passes back: one position per 2x2 window, half of those
// zeroed, one nonzero in eight.
func poolGrad(dy []float32, hw int, rng *rand.Rand) {
	for base := 0; base < len(dy); base += hw * hw {
		for oy := 0; oy < hw; oy += 2 {
			for ox := 0; ox < hw; ox += 2 {
				keep := rng.Intn(8)
				for j, d := range [4]int{0, 1, hw, hw + 1} {
					if j != keep {
						dy[base+oy*hw+ox+d] = 0
					}
				}
			}
		}
	}
}

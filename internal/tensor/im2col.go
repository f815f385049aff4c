package tensor

import "fmt"

// ConvGeom describes one 2-D convolution's geometry. Input tensors are
// NCHW; weights are (outC, inC, kH, kW).
type ConvGeom struct {
	InC, InH, InW int
	OutC, KH, KW  int
	Stride, Pad   int
	OutH, OutW    int
}

// Geometry computes output sizes for a convolution and validates them.
func Geometry(inC, inH, inW, outC, kh, kw, stride, pad int) ConvGeom {
	if stride < 1 || pad < 0 || kh < 1 || kw < 1 {
		panic("tensor: invalid convolution geometry")
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH < 1 || outW < 1 {
		panic(fmt.Sprintf("tensor: convolution output collapses: in %dx%d k %dx%d stride %d pad %d", inH, inW, kh, kw, stride, pad))
	}
	return ConvGeom{InC: inC, InH: inH, InW: inW, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: outH, OutW: outW}
}

// K returns the contraction length inC*kH*kW.
func (g ConvGeom) K() int { return g.InC * g.KH * g.KW }

// Im2Col expands one NCHW input batch into the (N*outH*outW, K)
// patch matrix such that convolution becomes patches x weightsᵀ.
// Padding positions are zero.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	out := New(n*g.OutH*g.OutW, g.K())
	Im2ColInto(out, x, g)
	return out
}

// Im2ColInto is Im2Col writing into dst, which must be
// (N*outH*outW, K). Every position is written (padding positions get
// explicit zeros), so dst may hold stale data from a previous step.
func Im2ColInto(dst, x *Tensor, g ConvGeom) {
	n := x.Shape[0]
	if dst.Shape[0] != n*g.OutH*g.OutW || dst.Shape[1] != g.K() {
		panic(fmt.Sprintf("tensor: Im2Col destination %v does not match geometry", dst.Shape))
	}
	ParallelRows(n, func(lo, hi int) { im2colRange(dst.Data, x.Data, 0, g, lo, hi) })
}

// Im2ColU8Job is Im2ColInto over quantized levels: it expands n NCHW
// images of uint8 levels into the (n*outH*outW, K) patch matrix,
// writing pad at padding positions — the quantized zero point, so the
// result equals the quantized float patch matrix. The approximate
// layers quantize once per input element and expand bytes, instead of
// expanding floats and quantizing every element K*K times. A layer
// keeps one job across steps and calls Run, so the parallel dispatch
// reuses this struct as its RangeRunner instead of allocating a
// closure context per call.
type Im2ColU8Job struct {
	dst, src []uint8
	pad      uint8
	g        ConvGeom
}

// Run expands the n images in src into dst (every position is
// written) through the job's reusable state.
func (j *Im2ColU8Job) Run(dst, src []uint8, n int, g ConvGeom, pad uint8) {
	if len(dst) != n*g.OutH*g.OutW*g.K() || len(src) != n*g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColU8 buffers (%d, %d) do not match geometry", len(dst), len(src)))
	}
	j.dst, j.src, j.pad, j.g = dst, src, pad, g
	ParallelRowsOn(n, j)
}

// RunRange expands images [lo, hi); it implements RangeRunner for the
// pool and is not meant to be called directly.
func (j *Im2ColU8Job) RunRange(lo, hi int) {
	im2colRange(j.dst, j.src, j.pad, j.g, lo, hi)
}

// im2colRange expands images [lo, hi) of the NCHW batch src into their
// patch-matrix rows of dst, writing pad where a patch overhangs the
// image. One kernel row (KW entries) moves per step: a row wholly
// inside the image is a straight copy.
func im2colRange[T float32 | uint8](dst, src []T, pad T, g ConvGeom, lo, hi int) {
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
						d := dst[row : row+g.KW]
						row += g.KW
						iy := oy*g.Stride - g.Pad + ky
						if iy < 0 || iy >= g.InH {
							for i := range d {
								d[i] = pad
							}
							continue
						}
						s := src[cbase+iy*g.InW : cbase+(iy+1)*g.InW]
						if inside {
							copy(d, s[ix0:])
							continue
						}
						for i := range d {
							if ix := ix0 + i; ix >= 0 && ix < g.InW {
								d[i] = s[ix]
							} else {
								d[i] = pad
							}
						}
					}
				}
			}
		}
	}
}

// Col2Im scatters a patch-matrix gradient (N*outH*outW, K) back into an
// NCHW input gradient, accumulating overlaps — the adjoint of Im2Col.
func Col2Im(cols *Tensor, n int, g ConvGeom) *Tensor {
	out := New(n, g.InC, g.InH, g.InW)
	Col2ImInto(out, cols, n, g)
	return out
}

// Col2ImInto is Col2Im writing into dst, which must be NCHW of the
// geometry's input shape. dst is zeroed before accumulation.
func Col2ImInto(dst, cols *Tensor, n int, g ConvGeom) {
	var j Col2ImJob
	j.Run(dst, cols, n, g)
}

// Col2ImJob is the reusable Col2ImInto, symmetric to Im2ColU8Job.
type Col2ImJob struct {
	dst, cols *Tensor
	g         ConvGeom
	k, chw    int
}

// Run performs Col2ImInto(dst, cols, n, g) through the job's reusable
// state.
func (j *Col2ImJob) Run(dst, cols *Tensor, n int, g ConvGeom) {
	k := g.K()
	if cols.Shape[0] != n*g.OutH*g.OutW || cols.Shape[1] != k {
		panic(fmt.Sprintf("tensor: Col2Im shape %v does not match geometry", cols.Shape))
	}
	chw := g.InC * g.InH * g.InW
	if len(dst.Data) != n*chw {
		panic(fmt.Sprintf("tensor: Col2Im destination %v does not match geometry", dst.Shape))
	}
	j.dst, j.cols, j.g, j.k, j.chw = dst, cols, g, k, chw
	// Parallel over images: each image's scatter touches only its own
	// output region, so no synchronization is needed.
	ParallelRowsOn(n, j)
}

// RunRange scatters images [lo, hi); it implements RangeRunner for the
// pool and is not meant to be called directly. Like im2colRange it
// moves one kernel row per step, visiting patch entries in the same
// order as the defining loop nest, so every destination accumulates
// its overlaps in ascending (oy, ox, c, ky, kx) order.
func (j *Col2ImJob) RunRange(lo, hi int) {
	g := j.g
	dst, cols := j.dst.Data, j.cols.Data
	hw := g.InH * g.InW
	for img := lo; img < hi; img++ {
		base := img * j.chw
		clear(dst[base : base+j.chw])
		for oy := 0; oy < g.OutH; oy++ {
			for ox := 0; ox < g.OutW; ox++ {
				row := ((img*g.OutH+oy)*g.OutW + ox) * j.k
				ix0 := ox*g.Stride - g.Pad
				inside := ix0 >= 0 && ix0+g.KW <= g.InW
				for c := 0; c < g.InC; c++ {
					cbase := base + c*hw
					for ky := 0; ky < g.KH; ky++ {
						s := cols[row : row+g.KW]
						row += g.KW
						iy := oy*g.Stride - g.Pad + ky
						if iy < 0 || iy >= g.InH {
							continue
						}
						d := dst[cbase+iy*g.InW : cbase+(iy+1)*g.InW]
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
}

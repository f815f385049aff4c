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

// validOut returns the half-open range of output positions o in
// [0, out) whose input coordinate o*stride + off lies in [0, in) — the
// part of a k-major patch row (or column run) that is not padding.
// off is the kernel offset minus the padding; the range is empty
// (lo == hi) when the tap only ever sees padding.
func validOut(off, stride, in, out int) (lo, hi int) {
	if off < 0 {
		lo = (-off + stride - 1) / stride
	}
	if last := in - 1 - off; last >= 0 {
		hi = last/stride + 1
	}
	lo = min(lo, out)
	return lo, max(min(hi, out), lo)
}

// tapLive reports whether kernel tap (ky, kx) reads an input element
// at some output position. A tap that does not — its valid output range
// is empty on either axis — is dead: its patch-matrix row holds the pad
// value at every position and its gradient row lands nowhere in the
// input.
func (g ConvGeom) tapLive(ky, kx int) bool {
	oyLo, oyHi := validOut(ky-g.Pad, g.Stride, g.InH, g.OutH)
	oxLo, oxHi := validOut(kx-g.Pad, g.Stride, g.InW, g.OutW)
	return oyLo < oyHi && oxLo < oxHi
}

// LiveTaps returns the live kernel taps ky*KW + kx, ascending, in buf's
// storage: all KH*KW of them unless the padding is wide enough that some
// tap sees only padding (a 3x3/pad 1 conv on a 1x1 plane keeps just its
// centre tap). Im2ColTJob.RunLive and Col2ImTJob.RunLive keep the rows
// of these taps only.
func (g ConvGeom) LiveTaps(buf []int) []int {
	if cap(buf) < g.KH*g.KW {
		buf = make([]int, 0, g.KH*g.KW)
	}
	buf = buf[:0]
	for ky := 0; ky < g.KH; ky++ {
		for kx := 0; kx < g.KW; kx++ {
			if g.tapLive(ky, kx) {
				buf = append(buf, ky*g.KW+kx)
			}
		}
	}
	return buf
}

// wholePlane reports whether every tap's output plane is the input
// plane shifted by a constant: stride 1 and an output plane of the input
// plane's shape (3x3/pad 1, 5x5/pad 2 — every padded conv the models
// build). Im2ColTJob and Col2ImTJob then move whole planes, not rows.
func (g ConvGeom) wholePlane() bool {
	return g.Stride == 1 && g.OutH == g.InH && g.OutW == g.InW
}

// planeTap locates one kernel tap of a whole-plane geometry: output
// position p takes input position p+off, and the positions that do not
// overhang the image are [first, last) minus the gaps — the gap
// positions that follow every run of InW-gap valid ones. first == last
// when the tap sees only padding.
type planeTap struct{ off, first, last, gap int }

// planeTaps returns the KH*KW taps of a whole-plane geometry, (ky, kx)
// ascending, in buf's storage; none for any other geometry.
func (g ConvGeom) planeTaps(buf []planeTap) []planeTap {
	buf = buf[:0]
	if !g.wholePlane() {
		return buf
	}
	for ky := 0; ky < g.KH; ky++ {
		oyLo, oyHi := validOut(ky-g.Pad, 1, g.InH, g.OutH)
		for kx := 0; kx < g.KW; kx++ {
			oxLo, oxHi := validOut(kx-g.Pad, 1, g.InW, g.OutW)
			t := planeTap{}
			if oyLo < oyHi && oxLo < oxHi {
				t = planeTap{(ky-g.Pad)*g.InW + kx - g.Pad, oyLo*g.InW + oxLo, (oyHi-1)*g.InW + oxHi, g.InW - (oxHi - oxLo)}
			}
			buf = append(buf, t)
		}
	}
	return buf
}

// Im2ColTJob is the k-major im2col of the conv layers: it expands n
// NCHW images into the transposed patch matrix dst (K x n*outH*outW),
// row i = (c, ky, kx) holding that kernel tap's input for every output
// position (img, oy, ox), and pad where the tap overhangs the image —
// for the approximate layers' uint8 levels the quantized zero point,
// which is what a float zero quantizes to; for the float Conv2D, 0. The
// GEMMs scan rows of this matrix contiguously, so no transpose follows.
// In a whole-plane geometry every (i, img) is one copy of the shifted
// input plane followed by the pad fills; otherwise every (i, img, oy)
// gathers an input row at the stride between two pad fills. A layer
// keeps one job across steps and calls Run or RunLive, so the parallel
// dispatch reuses this struct as its RangeRunner instead of allocating
// a closure.
type Im2ColTJob[T uint8 | float32] struct {
	dst, src []T
	pad      T
	n        int
	g        ConvGeom
	taps     []planeTap // empty unless g.wholePlane()
	rows     []int      // the taps with a row (rowTaps)
}

// rowTaps returns, in buf's storage, the kernel taps ky*KW + kx,
// ascending, that have a row in a patch matrix: every tap, or only the
// live ones. Channel c's r-th row, c*len(taps) + r, holds tap taps[r].
func (g ConvGeom) rowTaps(buf []int, live bool) []int {
	if live {
		return g.LiveTaps(buf)
	}
	buf = buf[:0]
	for t := 0; t < g.KH*g.KW; t++ {
		buf = append(buf, t)
	}
	return buf
}

// Run expands the n images in src into dst (every position is
// written) through the job's reusable state.
func (j *Im2ColTJob[T]) Run(dst, src []T, n int, g ConvGeom, pad T) {
	j.run(dst, src, n, g, pad, false)
}

// RunLive is Run without the rows of dead taps (see ConvGeom.LiveTaps),
// which would hold pad alone: dst is (InC*live taps x n*outH*outW), row
// c*nLive + j holding channel c's j-th live tap.
func (j *Im2ColTJob[T]) RunLive(dst, src []T, n int, g ConvGeom, pad T) {
	j.run(dst, src, n, g, pad, true)
}

func (j *Im2ColTJob[T]) run(dst, src []T, n int, g ConvGeom, pad T, live bool) {
	j.rows = g.rowTaps(j.rows, live)
	if len(dst) != n*g.OutH*g.OutW*g.InC*len(j.rows) || len(src) != n*g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2ColT buffers (%d, %d) do not match geometry", len(dst), len(src)))
	}
	j.dst, j.src, j.pad, j.n, j.g, j.taps = dst, src, pad, n, g, g.planeTaps(j.taps)
	// One work item per (image, channel) input plane, images outermost,
	// so the pool can hand every worker whole images.
	ParallelImagesOn(n*g.InC, g.InC, 0, j)
}

// RunRange writes the patch-matrix entries of input planes [lo, hi)
// (plane = img*InC + c): image img's part of the rows of channel c's
// taps. It implements RangeRunner for the pool and is not meant to be
// called directly.
func (j *Im2ColTJob[T]) RunRange(lo, hi int) {
	g, taps := j.g, j.rows
	ohw := g.OutH * g.OutW
	for pl := lo; pl < hi; pl++ {
		img, c := pl/g.InC, pl%g.InC
		plane := j.src[pl*g.InH*g.InW:][:g.InH*g.InW]
		for r, tap := range taps {
			i := c*len(taps) + r
			d := j.dst[(i*j.n+img)*ohw:][:ohw]
			if len(j.taps) > 0 {
				// Every valid position holds the input plane at +off; the
				// copy also drags neighbours into the gaps, which the
				// fills then overwrite together with everything outside
				// the span.
				t := j.taps[tap]
				copy(d[t.first:t.last], plane[t.first+t.off:])
				fill(d[:t.first], j.pad)
				fill(d[t.last:], j.pad)
				for p := t.first + g.InW - t.gap; p < t.last && t.gap > 0; p += g.InW {
					fill(d[p:p+t.gap], j.pad)
				}
				continue
			}
			ky, kx := tap/g.KW, tap%g.KW
			ix0 := kx - g.Pad
			oxLo, oxHi := validOut(ix0, g.Stride, g.InW, g.OutW)
			for oy := 0; oy < g.OutH; oy++ {
				row := d[oy*g.OutW:][:g.OutW]
				iy := oy*g.Stride - g.Pad + ky
				if iy < 0 || iy >= g.InH {
					fill(row, j.pad)
					continue
				}
				s := plane[iy*g.InW:][:g.InW]
				fill(row[:oxLo], j.pad)
				fill(row[oxHi:], j.pad)
				for ox := oxLo; ox < oxHi; ox++ {
					row[ox] = s[ox*g.Stride+ix0]
				}
			}
		}
	}
}

func fill[T uint8 | float32](d []T, v T) {
	for i := range d {
		d[i] = v
	}
}

// Col2ImTJob is the k-major col2im of every conv layer, the adjoint of
// Im2ColTJob: it scatters the transposed patch-matrix gradient cols
// (K x n*outH*outW) straight into the NCHW input gradient dst, so the
// GEMM's k-major output needs no transpose first.
//
// The result is bit-identical to the row-major scatter (the test
// oracle), which adds an input element's overlaps in ascending (oy, ox)
// order; for one element (c, iy, ix) the kernel tap is a function of
// the output position — ky = iy + pad - oy*stride, kx likewise — so
// ascending oy is descending ky and, within one oy, ascending ox is
// descending kx. Walking the taps of a channel with ky then kx
// descending therefore feeds every element its summands in exactly
// that order, whole patch-matrix rows at a time.
//
// In a whole-plane geometry a tap's patch-matrix plane lands on the
// input plane at a constant shift, so the job zeroes the plane's gap
// entries — the ones that overhang the image — and adds the whole span
// with one vector add. Every accumulator starts at +0 and a sum that
// started at +0 is never -0, so the extra +0 summands change no bit
// (the argument kernels_backward.go makes for its zero gradients).
//
// A dead tap's row overhangs the image at every position, so no entry
// of it is ever read: RunLive takes the matrix without those rows.
type Col2ImTJob struct {
	dst, cols []float32
	n         int
	g         ConvGeom
	taps      []planeTap // empty unless g.wholePlane()
	rows      []int      // the taps with a row (rowTaps)
}

// Run zeroes dst (n NCHW images of the geometry's input shape) and
// accumulates cols into it through the job's reusable state. It
// consumes cols: the whole-plane path overwrites overhanging entries.
func (j *Col2ImTJob) Run(dst, cols []float32, n int, g ConvGeom) { j.run(dst, cols, n, g, false) }

// RunLive is Run on the live rows alone, the layout
// Im2ColTJob.RunLive writes.
func (j *Col2ImTJob) RunLive(dst, cols []float32, n int, g ConvGeom) { j.run(dst, cols, n, g, true) }

func (j *Col2ImTJob) run(dst, cols []float32, n int, g ConvGeom, live bool) {
	j.rows = g.rowTaps(j.rows, live)
	if len(cols) != n*g.OutH*g.OutW*g.InC*len(j.rows) || len(dst) != n*g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2ImT buffers (%d, %d) do not match geometry", len(dst), len(cols)))
	}
	j.dst, j.cols, j.n, j.g, j.taps = dst, cols, n, g, g.planeTaps(j.taps)
	// Parallel over (image, channel) planes, images outermost: each is
	// written by exactly one block, so no synchronization is needed.
	ParallelImagesOn(n*g.InC, g.InC, 0, j)
}

// RunRange scatters into input planes [lo, hi) (plane = img*InC + c);
// it implements RangeRunner for the pool and is not meant to be called
// directly.
func (j *Col2ImTJob) RunRange(lo, hi int) {
	g, taps := j.g, j.rows
	ohw := g.OutH * g.OutW
	for pl := lo; pl < hi; pl++ {
		img, c := pl/g.InC, pl%g.InC
		plane := j.dst[pl*g.InH*g.InW:][:g.InH*g.InW]
		clear(plane)
		for r := len(taps) - 1; r >= 0; r-- {
			tap := taps[r]
			i := c*len(taps) + r
			src := j.cols[(i*j.n+img)*ohw:][:ohw]
			if len(j.taps) > 0 {
				t := j.taps[tap]
				for p := t.first + g.InW - t.gap; p < t.last && t.gap > 0; p += g.InW {
					for q := p; q < p+t.gap; q++ {
						src[q] = 0
					}
				}
				addInto(plane[t.first+t.off:t.last+t.off], src[t.first:t.last])
				continue
			}
			ky, kx := tap/g.KW, tap%g.KW
			oyLo, oyHi := validOut(ky-g.Pad, g.Stride, g.InH, g.OutH)
			ix0 := kx - g.Pad
			oxLo, oxHi := validOut(ix0, g.Stride, g.InW, g.OutW)
			for oy := oyLo; oy < oyHi; oy++ {
				d := plane[(oy*g.Stride-g.Pad+ky)*g.InW:][:g.InW]
				s := src[oy*g.OutW+oxLo : oy*g.OutW+oxHi]
				for ox, v := range s {
					d[(oxLo+ox)*g.Stride+ix0] += v
				}
			}
		}
	}
}

// addInto adds src into dst elementwise, each sum a separately rounded
// float32 add: AVX2 over the whole 8-lane blocks where available.
func addInto(dst, src []float32) {
	src = src[:len(dst)]
	for i := addBlocks(dst, src); i < len(dst); i++ {
		dst[i] += src[i]
	}
}

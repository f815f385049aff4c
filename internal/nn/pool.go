package nn

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/appmult/retrain/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and stride.
type MaxPool2D struct {
	K, Stride int
	inShape   []int
	argmax    []int32
	out, dx   *tensor.Tensor
	run       maxPoolRun
	corners   poolCorners
}

// NewMaxPool2D returns a max pooling layer (window k, stride s).
func NewMaxPool2D(k, s int) *MaxPool2D {
	if k < 1 || s < 1 {
		panic("nn: invalid pooling geometry")
	}
	return &MaxPool2D{K: k, Stride: s}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool%dx%d", p.K, p.K) }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return p.pool(x, true)
}

// Infer implements Inferer: max pooling without the argmax map.
func (p *MaxPool2D) Infer(x *tensor.Tensor) *tensor.Tensor { return p.pool(x, false) }

// pool is the one body behind Forward and Infer; withArgmax also records
// where each maximum came from, which Backward scatters to.
func (p *MaxPool2D) pool(x *tensor.Tensor, withArgmax bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h < p.K || w < p.K {
		panic(fmt.Sprintf("nn: maxpool output collapses for input %v", x.Shape))
	}
	if len(x.Data) > math.MaxInt32 {
		panic(fmt.Sprintf("nn: maxpool input %v has more elements than its int32 argmax map can index", x.Shape))
	}
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	p.out = tensor.Ensure4(p.out, n, c, oh, ow)
	var argmax []int32
	if withArgmax {
		p.inShape = append(p.inShape[:0], x.Shape...)
		p.argmax = grow(p.argmax, len(p.out.Data))
		argmax = p.argmax
	}
	p.run = maxPoolRun{k: p.K, stride: p.Stride, src: x.Data, dst: p.out.Data, argmax: argmax, h: h, w: w, oh: oh, ow: ow}
	if p.K == 2 && p.Stride == 2 {
		p.corners.build(h, w, oh, ow)
		p.run.corners = &p.corners
	}
	runPass(&p.run, len(x.Data), n*c, 0)
	return p.out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.Ensure(p.dx, p.inShape...)
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	// The scatter reads only the plane sizes: an output plane as one row.
	p.run = maxPoolRun{src: dy.Data, dst: p.dx.Data, argmax: p.argmax, h: h, w: w,
		oh: len(p.argmax) / (n * c), ow: 1, backward: true}
	runPass(&p.run, len(p.dx.Data), n*c, 0)
	return p.dx
}

// maxPoolRun is the max-pool passes' body over (image, channel) planes
// [lo, hi). The forward pools src into dst, recording each maximum's
// input index in argmax unless it is nil; the backward zeroes the
// planes of the input gradient dst and adds every output gradient of
// src into its argmax position, in ascending output order — the one
// order an input position's overlapping windows are summed in. A 2×2 /
// stride-2 forward runs its whole blocks of corners' planes on the AVX2
// kernel and the rest on the loop.
type maxPoolRun struct {
	k, stride    int
	src, dst     []float32
	argmax       []int32
	h, w, oh, ow int
	backward     bool
	corners      *poolCorners
}

// poolCorners is the 2×2 / stride-2 kernel's window table for one plane
// geometry: the input index of every window's top-left element, in
// output order, over a block of the fewest whole planes whose outputs
// fill whole groups of eight, relative to the block's first plane.
type poolCorners struct {
	h, w, planes int
	tl           []int32
}

// build makes the table for h x w planes pooled to oh x ow, unless it
// is already that geometry's.
func (pc *poolCorners) build(h, w, oh, ow int) {
	if pc.h == h && pc.w == w {
		return
	}
	pc.h, pc.w = h, w
	pc.planes = 8 >> min(bits.TrailingZeros(uint(oh*ow)), 3)
	pc.tl = grow(pc.tl, pc.planes*oh*ow)
	i := 0
	for p := 0; p < pc.planes; p++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				pc.tl[i] = int32(p*h*w + 2*y*w + 2*x)
				i++
			}
		}
	}
}

func (t *maxPoolRun) RunRange(lo, hi int) {
	hw, ohw := t.h*t.w, t.oh*t.ow
	if t.backward {
		clear(t.dst[lo*hw : hi*hw])
		am := t.argmax[lo*ohw : hi*ohw]
		for o, g := range t.src[lo*ohw : hi*ohw][:len(am)] {
			t.dst[am[o]] += g
		}
		return
	}
	pl := lo
	if t.corners != nil {
		pl += t.pool2x2Blocks(lo, hi)
	}
	for ; pl < hi; pl++ {
		in := t.src[pl*hw:][:hw]
		out := t.dst[pl*ohw:][:ohw]
		for oy := 0; oy < t.oh; oy++ {
			for ox := 0; ox < t.ow; ox++ {
				bestIdx := (oy*t.stride)*t.w + ox*t.stride
				best := in[bestIdx]
				for ky := 0; ky < t.k; ky++ {
					row := in[(oy*t.stride+ky)*t.w+ox*t.stride:][:t.k]
					for kx, v := range row {
						if v > best {
							best = v
							bestIdx = (oy*t.stride+ky)*t.w + ox*t.stride + kx
						}
					}
				}
				out[oy*t.ow+ox] = best
				if t.argmax != nil {
					t.argmax[pl*ohw+oy*t.ow+ox] = int32(pl*hw + bestIdx)
				}
			}
		}
	}
}

// GlobalAvgPool averages each channel's spatial map to a single value,
// producing (N, C, 1, 1) — the ResNet head pooling.
type GlobalAvgPool struct {
	inShape []int
	out, dx *tensor.Tensor
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return "gap" }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = append(p.inShape[:0], x.Shape...)
	p.out = tensor.Ensure4(p.out, n, c, 1, 1)
	hw := h * w
	for i := range p.out.Data {
		var s float64
		for _, v := range x.Data[i*hw : (i+1)*hw] {
			s += float64(v)
		}
		p.out.Data[i] = float32(s / float64(hw))
	}
	return p.out
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	hw := p.inShape[2] * p.inShape[3]
	p.dx = tensor.Ensure(p.dx, p.inShape...)
	inv := 1 / float32(hw)
	for i, g := range dy.Data[:len(p.dx.Data)/hw] {
		g *= inv
		plane := p.dx.Data[i*hw : (i+1)*hw]
		for j := range plane {
			plane[j] = g
		}
	}
	return p.dx
}

package nn

import (
	"fmt"

	"github.com/appmult/retrain/internal/tensor"
)

// MaxPool2D is a max pooling layer with square window and stride.
type MaxPool2D struct {
	K, Stride int
	inShape   []int
	argmax    []int
	out, dx   *tensor.Tensor
	run       maxPoolRun
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
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: maxpool output collapses for input %v", x.Shape))
	}
	p.out = tensor.Ensure4(p.out, n, c, oh, ow)
	var argmax []int
	if withArgmax {
		p.inShape = append(p.inShape[:0], x.Shape...)
		p.argmax = grow(p.argmax, len(p.out.Data))
		argmax = p.argmax
	}
	p.run = maxPoolRun{k: p.K, stride: p.Stride, src: x.Data, dst: p.out.Data, argmax: argmax, h: h, w: w, oh: oh, ow: ow}
	runPass(&p.run, len(x.Data), n*c, n, 0)
	return p.out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	p.dx = tensor.Ensure(p.dx, p.inShape...)
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	// The scatter reads only the plane sizes: an output plane as one row.
	p.run = maxPoolRun{src: dy.Data, dst: p.dx.Data, argmax: p.argmax, h: h, w: w,
		oh: len(p.argmax) / (n * c), ow: 1, backward: true}
	runPass(&p.run, len(p.dx.Data), n*c, n, 0)
	return p.dx
}

// maxPoolRun is the max-pool passes' body over (image, channel) planes
// [lo, hi). The forward pools src into dst, recording each maximum's
// input index in argmax unless it is nil; the backward zeroes the
// planes of the input gradient dst and adds every output gradient of
// src into its argmax position, in ascending output order — the one
// order an input position's overlapping windows are summed in.
type maxPoolRun struct {
	k, stride    int
	src, dst     []float32
	argmax       []int
	h, w, oh, ow int
	backward     bool
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
	for pl := lo; pl < hi; pl++ {
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
					t.argmax[pl*ohw+oy*t.ow+ox] = pl*hw + bestIdx
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

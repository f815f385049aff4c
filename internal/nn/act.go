package nn

import (
	"math"

	"github.com/appmult/retrain/internal/tensor"
)

// ReLU is the rectified linear activation. Its loops are branch-free:
// the sign of an activation is a coin flip the predictor loses.
type ReLU struct {
	// keep holds 1 where Forward's input was not negative, else 0.
	keep    []uint8
	out, dx *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// negative returns 1 when the float32 with these bits is < 0 and 0
// otherwise: exactly the patterns 0x80000001 (the smallest negative
// denormal) through 0xFF800000 (-Inf) — not -0, not a NaN of either
// sign, which therefore pass through the rectifier as they do through
// `if v < 0`.
func negative(bits uint32) uint32 {
	return uint32((uint64(bits-0x80000001) - 0x7F800000) >> 63)
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	r.keep = grow(r.keep, len(x.Data))
	out, keep := r.out.Data, r.keep
	for i, v := range x.Data {
		b := math.Float32bits(v)
		neg := negative(b)
		keep[i] = uint8(neg ^ 1)
		out[i] = math.Float32frombits(b & (neg - 1))
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.Ensure(r.dx, dy.Shape...)
	dx, keep := r.dx.Data, r.keep[:len(dy.Data)]
	for i, g := range dy.Data {
		dx[i] = math.Float32frombits(math.Float32bits(g) & -uint32(keep[i]))
	}
	return r.dx
}

// Infer implements Inferer: the rectification without the sign mask.
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	out := r.out.Data
	for i, v := range x.Data {
		b := math.Float32bits(v)
		out[i] = math.Float32frombits(b & (negative(b) - 1))
	}
	return r.out
}

// Flatten reshapes NCHW (or any >=2-D) input to (N, rest).
type Flatten struct {
	inShape []int
	view    tensor.Tensor // Infer's result
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	n := x.Shape[0]
	return x.Reshape(n, x.Numel()/n)
}

// Infer implements Inferer: the same view of x's data, held in the layer
// instead of allocated.
func (f *Flatten) Infer(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	f.view.Shape = append(f.view.Shape[:0], n, x.Numel()/n)
	f.view.Data = x.Data
	return &f.view
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

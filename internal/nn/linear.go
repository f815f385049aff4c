package nn

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/tensor"
)

// A fully connected layer on an (N, in) input is a 1x1 convolution over
// the (N, in, 1, 1) image of it: its im2col and col2im are transposes,
// and its NCHW output is the (N, out) row-major matrix. So Linear and
// ApproxLinear hold a convolution and run its passes; every sum keeps the
// order its conv documents, which is the row-major dense layers' order,
// and a step allocates nothing. They reach their conv through views
// (denseIO) and share its Weight, (out, in), and Bias.

// Linear is a fully connected float layer: y = x Wᵀ + b with x of
// shape (N, in) and W of shape (out, in), on Conv2D's passes.
type Linear struct {
	In, Out      int
	Weight, Bias *Param
	conv         *Conv2D
	io           denseIO
}

// NewLinear constructs a fully connected layer with Kaiming init.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	c := NewConv2D(name, in, out, 1, 1, 0, rng)
	return &Linear{In: in, Out: out, Weight: denseWeight(c.Weight), Bias: c.Bias, conv: c}
}

// Name implements Layer.
func (l *Linear) Name() string { return l.conv.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return l.conv.Params() }

// Forward implements Layer. The returned tensor is owned by the layer
// and valid until the next Forward call.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return flat(&l.io.y, l.conv.Forward(l.io.image(l.conv.name, x, l.In), train))
}

// Backward implements Layer. The returned tensor is owned by the layer
// and valid until the next Backward call.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return flat(&l.io.dx, l.conv.Backward(dy))
}

// ApproxLinear is the fully connected counterpart of ApproxConv2D, on
// its passes: the same LUT-based forward and LUT-gradient backward over
// a (N, in) input. The paper approximates only convolutional layers;
// this layer exists because the framework supports approximating any
// GEMM, and it doubles as a small, fast target for gradient-correctness
// tests.
type ApproxLinear struct {
	In, Out      int
	Weight, Bias *Param
	conv         *ApproxConv2D
	io           denseIO
}

// NewApproxLinear constructs an approximate fully connected layer.
func NewApproxLinear(name string, in, out int, op *Op, rng *rand.Rand) *ApproxLinear {
	c := NewApproxConv2D(name, in, out, 1, 1, 0, op, rng)
	return &ApproxLinear{In: in, Out: out, Weight: denseWeight(c.Weight), Bias: c.Bias, conv: c}
}

// Name implements Layer.
func (l *ApproxLinear) Name() string { return l.conv.name }

// Params implements Layer.
func (l *ApproxLinear) Params() []*Param { return l.conv.Params() }

// Op returns the layer's multiplier/gradient bundle.
func (l *ApproxLinear) Op() *Op { return l.conv.Op() }

// Forward implements Layer. The returned tensor is owned by the layer
// and valid until the next Forward call.
func (l *ApproxLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return flat(&l.io.y, l.conv.Forward(l.io.image(l.conv.name, x, l.In), train))
}

// Backward implements Layer. The returned tensor is owned by the layer
// and valid until the next Backward call.
func (l *ApproxLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return flat(&l.io.dx, l.conv.Backward(dy))
}

// denseWeight gives a 1x1 convolution's (out, in, 1, 1) weight the
// dense layers' (out, in) shape; its values, and so the Kaiming draws,
// stay the convolution's.
func denseWeight(w *Param) *Param {
	w.Value.Shape, w.Grad.Shape = w.Value.Shape[:2], w.Grad.Shape[:2]
	return w
}

// denseIO holds the views a dense layer passes to and from its 1x1
// convolution: the (N, in) argument as the (N, in, 1, 1) image, and the
// convolution's (N, c, 1, 1) results as (N, c). A view shares its
// tensor's data, so none of them copies.
type denseIO struct{ x, y, dx tensor.Tensor }

// image checks that x is (N, in) and returns it as the conv's input.
func (d *denseIO) image(name string, x *tensor.Tensor, in int) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != in {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", name, in, x.Shape))
	}
	d.x.Shape, d.x.Data = append(d.x.Shape[:0], x.Shape[0], in, 1, 1), x.Data
	return &d.x
}

// flat points v at the (N, C, 1, 1) tensor t as (N, C).
func flat(v, t *tensor.Tensor) *tensor.Tensor {
	v.Shape, v.Data = append(v.Shape[:0], t.Shape[0], t.Shape[1]), t.Data
	return v
}

package nn

import (
	"fmt"

	"github.com/appmult/retrain/internal/tensor"
)

// Residual computes main(x) + shortcut(x) — the ResNet building block
// connective. The shortcut is Identity for same-shape blocks or a
// projection (conv + norm) for dimension changes.
type Residual struct {
	name     string
	Main     Layer
	Shortcut Layer
	out, dx  *tensor.Tensor
}

// NewResidual constructs a residual connection. A nil shortcut means
// identity.
func NewResidual(name string, main, shortcut Layer) *Residual {
	if shortcut == nil {
		shortcut = Identity{}
	}
	return &Residual{name: name, Main: main, Shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	return append(r.Main.Params(), r.Shortcut.Params()...)
}

// sumInto returns a + b, shaped like a, in buf's storage (see
// tensor.Ensure).
func sumInto(buf, a, b *tensor.Tensor) *tensor.Tensor {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("nn: residual branches disagree: %v vs %v", a.Shape, b.Shape))
	}
	buf = tensor.Ensure(buf, a.Shape...)
	bd := b.Data
	for i, v := range a.Data {
		buf.Data[i] = v + bd[i]
	}
	return buf
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = sumInto(r.out, r.Main.Forward(x, train), r.Shortcut.Forward(x, train))
	return r.out
}

// Backward implements Layer. A branch's input is the block's, not data,
// so a Sequential branch runs its full backward (layerBackward).
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dx = sumInto(r.dx, layerBackward(r.Main, dy), layerBackward(r.Shortcut, dy))
	return r.dx
}

// Infer implements Inferer.
func (r *Residual) Infer(x *tensor.Tensor) *tensor.Tensor {
	r.out = sumInto(r.out, Infer(r.Main, x), Infer(r.Shortcut, x))
	return r.out
}

package nn

import (
	"fmt"
	"math"

	"github.com/appmult/retrain/internal/tensor"
)

// This file implements the inference-only forward path used by the
// serving subsystem (internal/serve). Forward(x, false) already
// computes evaluation-mode outputs, but it still pays for training:
// every layer fills the caches its Backward needs (ReLU masks, pooling
// argmax maps, batch-norm normalized activations, quantization clip
// masks). Predict walks the same layers through Inferer.Infer, which
// computes the identical output — bit for bit, the equivalence test in
// infer_test.go enforces it — while skipping every backward-only
// buffer.
//
// Predict shares the layers' scratch arenas with Forward, so the
// single-graph discipline extends to it: do not interleave a Predict
// between a Forward and its Backward on the same model instance, and
// drive one model instance from one goroutine at a time. Concurrent
// serving replicates the model instead (see models.Replicas).

// Inferer is implemented by layers with a dedicated inference path
// that skips backward-only work. Layers without it fall back to
// Forward(x, false), which is always equivalent.
type Inferer interface {
	// Infer runs the layer forward in inference mode; it must produce
	// the same outputs as Forward(x, false) without touching backward
	// scratch.
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// Infer runs one layer in inference mode, preferring its Inferer path.
func Infer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	if inf, ok := l.(Inferer); ok {
		return inf.Infer(x)
	}
	return l.Forward(x, false)
}

// Predict is the inference-only counterpart of Forward(x, false): the
// same outputs without allocating or filling any backward scratch.
// The returned tensor may be owned by the final layer and remains
// valid only until the model's next Forward/Predict call.
func (s *Sequential) Predict(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = Infer(l, x)
	}
	return x
}

// Infer implements Inferer.
func (s *Sequential) Infer(x *tensor.Tensor) *tensor.Tensor { return s.Predict(x) }

// Infer implements Inferer.
func (r *Residual) Infer(x *tensor.Tensor) *tensor.Tensor {
	m := Infer(r.Main, x)
	s := Infer(r.Shortcut, x)
	out := m.Clone()
	out.Add(s)
	return out
}

// Infer implements Inferer: the rectification without the sign mask.
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Infer implements Inferer: max pooling without the argmax map.
func (p *MaxPool2D) Infer(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: maxpool output collapses for input %v", x.Shape))
	}
	out := tensor.New(n, c, oh, ow)
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			in := x.Data[(img*c+ch)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := in[(oy*p.Stride)*w+ox*p.Stride]
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							if v := in[(oy*p.Stride+ky)*w+ox*p.Stride+kx]; v > best {
								best = v
							}
						}
					}
					out.Data[((img*c+ch)*oh+oy)*ow+ox] = best
				}
			}
		}
	}
	return out
}

// Infer implements Inferer: evaluation-mode normalization from the
// running statistics, without the xhat/invStd backward caches. The
// float64 intermediate sequence matches Forward(train=false) exactly,
// so the outputs are bit-identical.
func (b *BatchNorm2D) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != b.C {
		panic(fmt.Sprintf("nn: %s expects NCHW with C=%d, got %v", b.name, b.C, x.Shape))
	}
	n, c, hw := x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]
	out := tensor.New(x.Shape...)
	for ch := 0; ch < c; ch++ {
		mean := float64(b.RunningMean.Data[ch])
		vr := float64(b.RunningVar.Data[ch])
		inv := 1 / math.Sqrt(vr+b.Eps)
		g := float64(b.Gamma.Value.Data[ch])
		bt := float64(b.Beta.Value.Data[ch])
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				xh := (float64(x.Data[base+j]) - mean) * inv
				out.Data[base+j] = float32(g*xh + bt)
			}
		}
	}
	return out
}

// Infer implements Inferer: the LUT forward without the clip flags the
// straight-through backward needs. Everything else is Forward's own
// body (see ApproxConv2D.forward), so outputs are bit-identical.
func (c *ApproxConv2D) Infer(x *tensor.Tensor) *tensor.Tensor {
	c.checkInput(x)
	if !c.Observer.Seen() {
		c.Observer.Observe(x)
	}
	return c.forward(x, false)
}

// Infer implements Inferer: see ApproxConv2D.Infer.
func (l *ApproxLinear) Infer(x *tensor.Tensor) *tensor.Tensor {
	l.checkInput(x)
	if !l.Observer.Seen() {
		l.Observer.Observe(x)
	}
	return l.forward(x, false)
}

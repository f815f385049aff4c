package nn

import "github.com/appmult/retrain/internal/tensor"

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
// Predict shares the layers' scratch arenas and output buffers with
// Forward (each layer's own file holds its Infer next to its Forward),
// so the single-graph discipline extends to it: do not interleave a Predict
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
// The returned tensor belongs to the final layer (see Layer) and
// remains valid only until the model's next Forward/Predict call.
func (s *Sequential) Predict(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = Infer(l, x)
	}
	return x
}

// Infer implements Inferer.
func (s *Sequential) Infer(x *tensor.Tensor) *tensor.Tensor { return s.Predict(x) }

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

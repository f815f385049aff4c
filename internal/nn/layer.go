// Package nn is the neural-network substrate of the retraining
// framework: layers with explicit Forward/Backward passes, including
// the LUT-based approximate convolution and linear layers that realize
// the paper's Section IV forward and backward propagation.
//
// Layers are stateful: Forward caches whatever Backward needs, so a
// layer instance serves one training stream at a time (the standard
// single-graph discipline). Parallelism lives inside the kernels.
//
// Layers also own their results. The tensors returned by Forward,
// Backward and Infer belong to the layer and are valid until its next
// call of that method (Forward and Infer share one output buffer): every
// layer writes into buffers it sized on its first step, so a
// steady-state step allocates nothing between the GEMMs. A caller that
// keeps a result across steps clones it; a layer never writes into its
// argument, so handing one layer's result to the next is always safe.
package nn

import (
	"fmt"

	"github.com/appmult/retrain/internal/tensor"
)

// Layer is one differentiable module.
type Layer interface {
	// Name identifies the layer for debugging and reports.
	Name() string
	// Forward computes the layer output. train selects training
	// behaviour (batch statistics, observer updates). The result
	// belongs to the layer (see the package comment).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the loss gradient w.r.t. the output and
	// returns the gradient w.r.t. the input — likewise the layer's —
	// accumulating parameter gradients into Params().
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (empty for stateless
	// layers).
	Params() []*Param
}

// Param is a trainable tensor with its gradient accumulator.
//
// Contract: whoever writes Value advances the version (Touch), and
// layers derive weight-side state from it. The approximate layers keep
// the quantized form of their weights (see weightSide) for as long as
// the version stands, so a write that skips Touch is served from stale
// levels; the nnparanoid build tag re-derives the levels on every reuse
// and panics on such a write.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	version uint64
}

// Touch advances the version: call it after writing Value.
func (p *Param) Touch() { p.version++ }

// Version counts the writes of Value announced through Touch.
func (p *Param) Version() uint64 { return p.version }

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Sequential chains layers; it implements Layer itself.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Add appends a layer and returns s for chaining.
func (s *Sequential) Add(l Layer) *Sequential {
	s.Layers = append(s.Layers, l)
	return s
}

// Forward implements Layer. A training forward runs in a warm window of
// the worker pool (tensor.OpenWarmWindow): its layers' parallel passes
// follow each other closely, so idle workers poll for the next one
// instead of parking. Evaluation and inference leave the pool as is.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		tensor.OpenWarmWindow()
		defer tensor.CloseWarmWindow()
	}
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer, in a warm window like a training Forward.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	tensor.OpenWarmWindow()
	defer tensor.CloseWarmWindow()
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears every parameter gradient in the model.
func ZeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
}

// CopyParams copies parameter values from src to dst by position; the
// two models must have identical parameter shapes (e.g. a float model
// and its approximate twin). It is how quantization-aware-trained
// weights seed AppMult-aware retraining.
func CopyParams(dst, src Layer) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic(fmt.Sprintf("nn: CopyParams arity mismatch: %d vs %d params", len(dp), len(sp)))
	}
	for i := range dp {
		if dp[i].Value.Numel() != sp[i].Value.Numel() {
			panic(fmt.Sprintf("nn: CopyParams shape mismatch at %d (%s): %v vs %v",
				i, dp[i].Name, dp[i].Value.Shape, sp[i].Value.Shape))
		}
		copy(dp[i].Value.Data, sp[i].Value.Data)
		dp[i].Touch()
	}
}

// Identity passes its input through unchanged (residual shortcuts).
type Identity struct{}

// Name implements Layer.
func (Identity) Name() string { return "identity" }

// Forward implements Layer.
func (Identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// Backward implements Layer.
func (Identity) Backward(dy *tensor.Tensor) *tensor.Tensor { return dy }

// Params implements Layer.
func (Identity) Params() []*Param { return nil }

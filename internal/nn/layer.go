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
	// accumulating parameter gradients into Params(). A Sequential is a
	// model, whose input is data: its Backward returns nil (see
	// Sequential.Backward).
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
	// bounds and dst are BackwardSlices' slices and their buffers.
	bounds []int
	dst    [][]float32
}

// Touch advances the version: call it after writing Value.
func (p *Param) Touch() { p.version++ }

// Version counts the writes of Value announced through Touch.
func (p *Param) Version() uint64 { return p.version }

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// oneGrad returns where a backward that cuts no slices (BatchNorm's)
// adds p's gradient: Grad, or BackwardSlices' one buffer.
func (p *Param) oneGrad() []float32 {
	if p.bounds == nil {
		return p.Grad.Data
	} else if len(p.dst) > 1 {
		panic(fmt.Sprintf("nn: %s: this layer's backward takes one gradient slice, not %d", p.Name, len(p.dst)))
	}
	return p.dst[0]
}

// BackwardSlices is model's Backward over dy, images bounds[0] to
// bounds[S] of a batch cut into slices at the image bounds, leaving
// slice s's parameter gradients in grads[s] (model's params, packed back
// to back in Params() order) instead of Param.Grad: every gradient sum
// restarts from +0 at a slice boundary, so grads[s] holds, bit for bit,
// what zeroed Grads would after a Backward over slice s alone. A
// BatchNorm2D backward takes one slice. It returns Backward's result.
func BackwardSlices(model Layer, params []*Param, dy *tensor.Tensor, bounds []int, grads [][]float32) *tensor.Tensor {
	defer func() {
		for _, p := range params {
			p.bounds, p.dst = nil, p.dst[:0]
		}
	}()
	off := 0
	for _, p := range params {
		p.bounds = bounds
		for _, g := range grads[:len(bounds)-1] {
			p.dst = append(p.dst, g[off:off+len(p.Grad.Data)])
			clear(p.dst[len(p.dst)-1])
		}
		off += len(p.Grad.Data)
	}
	return model.Backward(dy)
}

// gradCuts is where a GEMM backward adds its weight and bias gradients:
// those of rows cuts[s] to cuts[s+1] (from 0 to the GEMM's rows) into
// dw[s] and, the column sums of dy, db[s].
type gradCuts struct {
	cuts   []int
	dw, db [][]float32
}

// to points g at the gradients of w and b for a backward over n images
// of hw rows each: BackwardSlices' slices, or one slice into Grad.
func (g *gradCuts) to(w, b *Param, n, hw int) {
	if w.bounds == nil {
		g.whole(n*hw, w.Grad.Data, b.Grad.Data)
		return
	}
	g.cuts = g.cuts[:0]
	for _, i := range w.bounds {
		g.cuts = append(g.cuts, (i-w.bounds[0])*hw)
	}
	g.dw, g.db = append(g.dw[:0], w.dst...), append(g.db[:0], b.dst...)
}

// whole points g at one slice of rows rows into dw and db.
func (g *gradCuts) whole(rows int, dw, db []float32) {
	g.cuts = append(g.cuts[:0], 0, rows)
	g.dw, g.db = append(g.dw[:0], dw), append(g.db[:0], db)
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

// Backward implements Layer for a model, whose input is data: no caller
// reads the gradient w.r.t. the input images, so Backward returns nil
// and the first layer computes only its parameter gradients where it
// can (paramGrader). Every gradient in Params() is a full backward's,
// bit for bit. It runs in a warm window like a training Forward.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	s.backwardParams(dy)
	return nil
}

// backwardParams implements paramGrader: the full backward of every
// layer but the first, then the first's parameter gradients.
func (s *Sequential) backwardParams(dy *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	tensor.OpenWarmWindow()
	defer tensor.CloseWarmWindow()
	dy = s.backwardTo(1, dy)
	if p, ok := s.Layers[0].(paramGrader); ok {
		p.backwardParams(dy)
	} else {
		s.Layers[0].Backward(dy)
	}
}

// backward is the full backward, the input gradient included: what a
// Residual branch and a Sequential nested after another layer need.
func (s *Sequential) backward(dy *tensor.Tensor) *tensor.Tensor {
	tensor.OpenWarmWindow()
	defer tensor.CloseWarmWindow()
	return s.backwardTo(0, dy)
}

// backwardTo runs the full backward of the layers from the last down to
// first and returns the input gradient of layer first.
func (s *Sequential) backwardTo(first int, dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= first; i-- {
		dy = layerBackward(s.Layers[i], dy)
	}
	return dy
}

// paramGrader is a layer that can accumulate its parameter gradients
// without computing its input gradient — what a model's first layer
// runs.
type paramGrader interface {
	backwardParams(dy *tensor.Tensor)
}

// layerBackward returns l's input gradient: l.Backward, but a
// Sequential's full backward, since its Backward returns none.
func layerBackward(l Layer, dy *tensor.Tensor) *tensor.Tensor {
	if s, ok := l.(*Sequential); ok {
		return s.backward(dy)
	}
	return l.Backward(dy)
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

package nn

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// Linear is a fully connected float layer: y = x Wᵀ + b with x of
// shape (N, in) and W of shape (out, in).
type Linear struct {
	name    string
	In, Out int
	Weight  *Param
	Bias    *Param
	x       *tensor.Tensor

	// Infer's output and its matmul dispatch, reused across calls.
	out *tensor.Tensor
	mm  tensor.MatMulTransBJob
}

// NewLinear constructs a fully connected layer with Kaiming init.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		name: name, In: in, Out: out,
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", out),
	}
	l.Weight.Value.KaimingInit(rng, in)
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *Linear) check(x *tensor.Tensor) {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", l.name, l.In, x.Shape))
	}
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.check(x)
	l.x = x
	out := tensor.MatMulTransB(x, l.Weight.Value)
	n := x.Shape[0]
	bias := l.Bias.Value.Data
	tensor.ParallelRows(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out.Data[i*l.Out : (i+1)*l.Out]
			for j, b := range bias {
				row[j] += b
			}
		}
	})
	return out
}

// Infer implements Inferer: Forward's arithmetic into a layer-owned
// output, so a served request allocates nothing here.
func (l *Linear) Infer(x *tensor.Tensor) *tensor.Tensor {
	l.check(x)
	l.out = tensor.Ensure2(l.out, x.Shape[0], l.Out)
	l.mm.Run(l.out, x, l.Weight.Value)
	bias := l.Bias.Value.Data
	for i := 0; i < x.Shape[0]; i++ {
		row := l.out.Data[i*l.Out : (i+1)*l.Out]
		for j, b := range bias {
			row[j] += b
		}
	}
	return l.out
}

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	// dW = dyᵀ x; db = sum dy; dx = dy W.
	dW := tensor.MatMulTransA(dy, l.x)
	l.Weight.Grad.Add(dW)
	n := dy.Shape[0]
	// Parallel over output columns so each worker owns its accumulator;
	// rows still fold in ascending order, keeping the sums bit-identical
	// to the serial loop.
	grad := l.Bias.Grad.Data
	tensor.ParallelRows(l.Out, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			g := grad[j]
			for i := 0; i < n; i++ {
				g += dy.Data[i*l.Out+j]
			}
			grad[j] = g
		}
	})
	return tensor.MatMul(dy, l.Weight.Value)
}

// ApproxLinear is the fully connected counterpart of ApproxConv2D:
// the same LUT-based forward and LUT-gradient backward over a (N, in)
// input. The paper approximates only convolutional layers; this layer
// exists because the framework supports approximating any GEMM, and it
// doubles as a small, fast target for gradient-correctness tests.
type ApproxLinear struct {
	name     string
	In, Out  int
	Weight   *Param
	Bias     *Param
	Observer quant.Observer
	op       *Op

	// Deferred-observe state (see ObservedLayer).
	lag observerLag

	// w is what the GEMMs derive from the weights alone, kept per weight
	// version.
	w weightSide

	// trained: the caches below come from Forward, not Infer (see
	// ApproxConv2D).
	rows    int
	trained bool
	xq      []uint8
	xClip   []bool
	px      quant.Params

	// Scratch arena: buffers sized on first use, reused every step.
	ks   KernelScratch
	out  *tensor.Tensor
	dx   *tensor.Tensor
	dw   []float32
	gsum []float32
}

// NewApproxLinear constructs an approximate fully connected layer.
func NewApproxLinear(name string, in, out int, op *Op, rng *rand.Rand) *ApproxLinear {
	l := &ApproxLinear{
		name: name, In: in, Out: out,
		Weight: newParam(name+".weight", out, in),
		Bias:   newParam(name+".bias", out),
		op:     op,
	}
	l.Weight.Value.KaimingInit(rng, in)
	return l
}

// Name implements Layer.
func (l *ApproxLinear) Name() string { return l.name }

// Params implements Layer.
func (l *ApproxLinear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Op returns the layer's multiplier/gradient bundle.
func (l *ApproxLinear) Op() *Op { return l.op }

// SetOp swaps the multiplier/gradient bundle (see ApproxConv2D.SetOp).
func (l *ApproxLinear) SetOp(op *Op) { l.op = op }

// Forward implements Layer. The returned tensor is owned by the layer
// and valid until the next Forward call.
func (l *ApproxLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.checkInput(x)
	l.lag.observe(&l.Observer, x, train)
	return l.forward(x, true)
}

func (l *ApproxLinear) checkInput(x *tensor.Tensor) {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", l.name, l.In, x.Shape))
	}
}

// forward is the one forward body behind Forward and Infer (see
// ApproxConv2D.forward): bring the weight-side state up to the weights'
// version, quantize the input, run the GEMM. withClip also records the
// input clip flags Backward masks with.
func (l *ApproxLinear) forward(x *tensor.Tensor, withClip bool) *tensor.Tensor {
	l.px = l.Observer.Params(l.op.Bits)
	l.w.sync(l.name, &l.ks, l.Weight, l.op, false, withClip, l.Out, l.In)
	l.rows = x.Shape[0]
	l.trained = withClip
	l.xq = grow(l.xq, len(x.Data))
	var xClip []bool
	if withClip {
		l.xClip = grow(l.xClip, len(l.xq))
		xClip = l.xClip
	}
	l.ks.quantizeWithClip(l.xq, xClip, x.Data, l.px)
	// The arena's operand transpose, as in ForwardGEMM; the weight side
	// is the layer's own.
	l.ks.xT = grow(l.ks.xT, len(l.xq))
	l.ks.transposeU8(l.ks.xT, l.xq, l.rows, l.In)
	l.out = tensor.Ensure2(l.out, l.rows, l.Out)
	l.op.forwardT(&l.ks, l.out.Data, l.ks.xT, &l.w, l.rows, 1, l.px, l.Bias.Value.Data)
	return l.out
}

// Backward implements Layer. The returned tensor is owned by the layer
// and valid until the next Backward call.
func (l *ApproxLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if !l.trained {
		panic(fmt.Sprintf("nn: %s: Backward must follow Forward; Infer records no clip flags", l.name))
	}
	l.dw = grow(l.dw, l.Out*l.In)
	l.gsum = grow(l.gsum, l.Out)
	l.dx = tensor.Ensure2(l.dx, l.rows, l.In)
	l.op.BackwardGEMM(&l.ks, l.dw, l.dx.Data, l.gsum, dy.Data, l.xq, l.w.wq, l.xClip, l.w.wClip,
		l.rows, l.Out, l.In, l.w.pw, l.px)
	for i, v := range l.dw {
		l.Weight.Grad.Data[i] += v
	}
	for j, v := range l.gsum {
		l.Bias.Grad.Data[j] += v
	}
	return l.dx
}

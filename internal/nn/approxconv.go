package nn

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// ApproxConv2D is the paper's central layer: a 2-D convolution whose
// multiplications are performed by an approximate multiplier via a
// product LUT (forward) and whose backward pass uses precomputed
// gradient LUTs — STE or the proposed difference-based tables,
// depending on the Op (Fig. 4).
//
// Weights and activations are fake-quantized to unsigned B-bit levels
// with per-tensor affine parameters (Eq. 7); products are dequantized
// per Eq. (8); parameter updates flow through Eq. (9). ApproxLinear is
// its 1x1 case.
//
// The data path is byte-first and k-major: the NCHW input is quantized
// (and its clip flags recorded) once per element, im2col expands the
// uint8 levels into the one patch matrix xT (k x rows) the GEMM kernels
// scan — padding positions get the zero-point level, which is what a
// float zero quantizes to — the forward epilogue writes NCHW, the
// backward kernels read dy as NCHW and leave the input gradient k-major
// (dxT) for col2im to scatter, and the straight-through clip mask is
// applied after col2im, per input element. No float patch matrix, no
// per-patch clip matrix and no transpose of either patch matrix exist.
// Both patch matrices hold the live taps' rows only: a tap that sees
// nothing but padding (a 3x3/pad 1 conv on a 1x1 plane keeps only its
// centre tap) reduces to per-channel constants (weightSide.cut).
//
// The layer owns a scratch-buffer arena: quantized operands, the two
// patch matrices, GEMM output, and gradient buffers are allocated once
// and reused across steps, so steady-state training steps allocate
// nothing here. Consequently the tensors returned by Forward and
// Backward are owned by the layer and remain valid only until its
// next Forward/Backward call — the same single-graph discipline the
// layer caches already imposed.
type ApproxConv2D struct {
	name           string
	InC, OutC      int
	K, Stride, Pad int
	Weight, Bias   *Param
	Observer       quant.Observer
	// PerChannel selects per-output-channel weight quantization
	// (one scale/zero-point per filter) instead of the paper's
	// per-tensor scheme — the standard accuracy upgrade for quantized
	// convolutions, supported because Eq. (8) factors per channel.
	PerChannel bool

	op *Op

	// Deferred-observe state (see ObservedLayer).
	lag observerLag

	// w is what the GEMMs derive from the weights alone, kept per weight
	// version.
	w weightSide

	// Forward caches consumed by Backward: xq and xClip hold one level
	// and one clip flag per input element (N*C*H*W), xT the level patch
	// matrix of the live taps (w.kl x rows); the clip flags stay nil on a
	// layer that only ever ran Infer. trained records that the caches
	// come from Forward: Infer overwrites the levels but not the flags,
	// so Backward refuses to run after it.
	geom    tensor.ConvGeom
	batch   int
	trained bool
	xq, xT  []uint8
	xClip   []bool
	px      quant.Params

	// Scratch arena (see KernelScratch): buffers sized on first use,
	// reused every step. dxT is the (kl x rows) input-gradient patch
	// matrix; a model's first layer never sizes it or dx.
	ks     KernelScratch
	im2col tensor.Im2ColTJob[uint8]
	col2im tensor.Col2ImTJob
	y      *tensor.Tensor
	dxT    []float32
	dx     *tensor.Tensor
}

// NewApproxConv2D constructs an approximate convolution using op's
// multiplier and gradient estimator, with Kaiming-initialized weights.
func NewApproxConv2D(name string, inC, outC, k, stride, pad int, op *Op, rng *rand.Rand) *ApproxConv2D {
	c := &ApproxConv2D{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: newParam(name+".weight", outC, inC, k, k),
		Bias:   newParam(name+".bias", outC),
		op:     op,
	}
	c.Weight.Value.KaimingInit(rng, inC*k*k)
	return c
}

// Name implements Layer.
func (c *ApproxConv2D) Name() string { return c.name }

// Params implements Layer.
func (c *ApproxConv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Op returns the layer's multiplier/gradient bundle.
func (c *ApproxConv2D) Op() *Op { return c.op }

// SetOp swaps the multiplier/gradient bundle (e.g. switching the same
// trained layer between STE and difference-based estimators). The op is
// part of the weight-side state's key, so the next forward rebuilds it.
func (c *ApproxConv2D) SetOp(op *Op) { c.op = op }

// Forward implements Layer. The returned tensor is owned by the layer
// and valid until the next Forward call.
func (c *ApproxConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.checkInput(x)
	c.lag.observe(&c.Observer, x, train)
	return c.forward(x, true)
}

func (c *ApproxConv2D) checkInput(x *tensor.Tensor) {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects NCHW with C=%d, got %v", c.name, c.InC, x.Shape))
	}
}

// forward is the one forward body behind Forward and Infer: bring the
// weight-side state up to the weights' version and cut its view for the
// input's live taps, quantize the input tensor, expand its levels into
// the k-major patch matrix of those taps, and run the GEMM, whose
// epilogue writes NCHW. withClip also records the input clip
// flags Backward masks with; Infer skips them.
func (c *ApproxConv2D) forward(x *tensor.Tensor, withClip bool) *tensor.Tensor {
	g := tensor.Geometry(c.InC, x.Shape[2], x.Shape[3], c.OutC, c.K, c.K, c.Stride, c.Pad)
	c.geom = g
	c.batch = x.Shape[0]
	c.trained = withClip
	c.px = c.Observer.Params(c.op.Bits)
	c.w.sync(c.name, &c.ks, c.Weight, c.op, c.PerChannel, withClip, c.OutC, g.K())
	c.w.cut(g)

	c.xq = grow(c.xq, len(x.Data))
	var xClip []bool
	if withClip {
		c.xClip = grow(c.xClip, len(c.xq))
		xClip = c.xClip
	}
	// Calibrate widens every range to include zero, so the zero point
	// is the level of a float zero — the padding value — and is never
	// clipped.
	c.ks.quantizeWithClip(c.xq, xClip, x.Data, c.px)
	rows := c.batch * g.OutH * g.OutW
	c.xT = grow(c.xT, c.w.kl*rows)
	c.im2col.RunLive(c.xT, c.xq, c.batch, g, uint8(c.px.Zero))

	c.y = tensor.Ensure4(c.y, c.batch, g.OutC, g.OutH, g.OutW)
	c.op.forwardT(&c.ks, c.y.Data, c.xT, &c.w, rows, g.OutH*g.OutW, c.px, c.Bias.Value.Data)
	return c.y
}

// Backward implements Layer. The returned tensor is owned by the layer
// and valid until the next Backward call.
func (c *ApproxConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor { return c.backward(dy, true) }

// backwardParams implements paramGrader: Backward without the input
// gradient.
func (c *ApproxConv2D) backwardParams(dy *tensor.Tensor) { c.backward(dy, false) }

// backward adds the parameter gradients per slice (gradCuts.to) — the
// kernels write them: dW in the sweep's epilogue, the bias gradient (the
// per-channel column sums of dy) in its scan of dy — and, withDX,
// returns the input gradient.
func (c *ApproxConv2D) backward(dy *tensor.Tensor, withDX bool) *tensor.Tensor {
	if !c.trained {
		panic(fmt.Sprintf("nn: %s: Backward must follow Forward; Infer records no clip flags", c.name))
	}
	g := c.geom
	rows := c.batch * g.OutH * g.OutW
	var dxT []float32
	if withDX {
		c.dxT = grow(c.dxT, c.w.kl*rows)
		dxT = c.dxT
	}
	// dxT comes back unmasked: the mask is applied below, once per input
	// element.
	c.ks.grads.to(c.Weight, c.Bias, c.batch, g.OutH*g.OutW)
	c.op.backwardT(&c.ks, dxT, dy.Data, g.OutH*g.OutW, c.xT, &c.w, rows, c.px)
	if !withDX {
		return nil
	}
	c.dx = tensor.Ensure4(c.dx, c.batch, g.InC, g.InH, g.InW)
	c.col2im.RunLive(c.dx.Data, c.dxT, c.batch, g)
	// Every patch entry aliasing one input element shares its clip
	// flag, and a sum of masked zeros is +0, so masking the summed
	// gradient equals masking each patch entry before the sum.
	c.ks.maskClipped(c.dx.Data, c.xClip)
	return c.dx
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// This file pins Linear and ApproxLinear, which run as 1x1 convolutions
// on Conv2D's and ApproxConv2D's passes, to the dense layers they were
// before: frozenLinear and frozenApproxLinear below are those layers
// verbatim — float Linear on tensor's row-major GEMMs (now the copies in
// conv_rowmajor_test.go), ApproxLinear on its own operand transpose
// (kMajor), forwardT and BackwardGEMM, whose k-major input gradient it
// maps back to row-major by index.

// denseShapes are the oracle's (batch, in, out) table: the reduced-scale
// model heads at batch 1, 8 and 32, and odd shapes — a batch that is not
// a multiple of any tile, k past the pool's inline cutoff, and rows
// under 32 with 40 output channels (the skinny forward row).
func denseShapes() (shapes [][3]int) {
	for _, head := range [][2]int{{64, 15}, {15, 11}, {11, 10}, {64, 10}} {
		for _, n := range []int{1, 8, 32} {
			shapes = append(shapes, [3]int{n, head[0], head[1]})
		}
	}
	return append(shapes, [3]int{40, 7, 3}, [3]int{33, 100, 40}, [3]int{8, 100, 40})
}

// denseGrad returns an upstream gradient for an (n, out) output: dense
// (some entries ±0), or exactly every fourth entry nonzero among ±0 —
// the two sides of sparseGrad.
func denseGrad(t *testing.T, rng *rand.Rand, n, out int, sparse bool) *tensor.Tensor {
	t.Helper()
	negZero := float32(math.Copysign(0, -1))
	dy := tensor.New(n, out)
	for i := range dy.Data {
		switch {
		case sparse && i%4 != 3 && rng.Intn(2) == 0:
			dy.Data[i] = negZero
		case sparse && i%4 != 3:
		case !sparse && rng.Intn(8) == 0:
			dy.Data[i] = negZero
		default:
			dy.Data[i] = float32(rng.NormFloat64())
		}
	}
	if _, ok := sparseGrad(dy.Data); ok != sparse {
		t.Fatalf("sparseGrad = %v, want %v", !sparse, sparse)
	}
	return dy
}

// denseInput returns an (n, in) input of the given spread with one
// entry in eight +0 or -0.
func denseInput(rng *rand.Rand, n, in int, std float64) *tensor.Tensor {
	x := tensor.New(n, in)
	x.RandNormal(rng, std)
	for i := range x.Data {
		if rng.Intn(8) == 0 {
			x.Data[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		}
	}
	return x
}

// seedParams gives a layer's weight w and bias b a random bias value and
// nonzero gradients, so the first Backward accumulates into something.
func seedParams(rng *rand.Rand, w, b *Param) {
	b.Value.RandNormal(rng, 0.1)
	w.Grad.RandNormal(rng, 0.1)
	b.Grad.RandNormal(rng, 0.1)
}

// cloneParam copies a parameter's value and gradient.
func cloneParam(p *Param) *Param {
	q := newParam(p.Name, p.Value.Shape...)
	copy(q.Value.Data, p.Value.Data)
	copy(q.Grad.Data, p.Grad.Data)
	return q
}

// TestLinearMatchesFrozen pins the float Linear to its row-major
// predecessor bit for bit on y, dx, dW and db over two accumulating
// steps, and on Infer, for every shape of denseShapes and a dense and a
// quarter-sparse dy; each step also holds one backward with slice
// boundaries to the per-slice backwards (requireSlicedBackward).
func TestLinearMatchesFrozen(t *testing.T) {
	for _, sh := range denseShapes() {
		for _, sparse := range []bool{false, true} {
			n, in, out := sh[0], sh[1], sh[2]
			t.Run(fmt.Sprintf("%dx%d->%d/sparse=%v", n, in, out, sparse), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*1000 + in*10 + out)))
				l := NewLinear("fc", in, out, rng)
				seedParams(rng, l.Weight, l.Bias)
				o := &frozenLinear{name: "fc", In: in, Out: out, Weight: cloneParam(l.Weight), Bias: cloneParam(l.Bias)}
				for step := 0; step < 2; step++ {
					x := denseInput(rng, n, in, 1)
					requireSameBits(t, "y", l.Forward(x, true).Data, o.Forward(x, true).Data)
					dy := denseGrad(t, rng, n, out, sparse)
					requireSameBits(t, "dx", l.Backward(dy).Data, o.Backward(dy).Data)
					requireSameBits(t, "dW", l.Weight.Grad.Data, o.Weight.Grad.Data)
					requireSameBits(t, "db", l.Bias.Grad.Data, o.Bias.Grad.Data)
					requireSlicedBackward(t, l, x, dy)
				}
				x := denseInput(rng, n, in, 1)
				requireSameBits(t, "Infer", Infer(l, x).Data, o.Infer(x).Data)
			})
		}
	}
}

// denseOps returns the oracle's ApproxLinear ops: every forward row of
// the ladder crossed with every backward label, each pinned so that the
// layer reaches it wherever the shape allows. The behavioral row is an
// op without a LUT; affine needs STE's tables and mixed cvste's (its DW
// table is not affine, its DX table is); small and fused run on the
// paper's smoothed-difference tables.
func denseOps(t *testing.T) map[string]*Op {
	t.Helper()
	e, ok := appmult.Lookup("mul7u_rm6")
	if !ok {
		t.Fatal("mul7u_rm6 missing")
	}
	cvste, err := gradient.ParseEstimator(gradient.EstCVSTE)
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]*Op{
		BwdPathSmall:  DifferenceOp(e.Mult, 6),
		BwdPathAffine: STEOp(e.Mult),
		BwdPathFused:  DifferenceOp(e.Mult, 6),
		BwdPathMixed:  EstimatorOp(e.Mult, cvste, e.HWS),
	}
	ops := map[string]*Op{}
	for _, fwd := range fwdLabels() {
		for _, bwd := range bwdLabels() {
			op := base[bwd]
			if fwd == FwdPathBehavioral {
				op = BehavioralOp(e.Mult, op.Grads)
			}
			ops[fwd+"/"+bwd] = op.Pinned(fwd, bwd)
		}
	}
	return ops
}

// TestApproxLinearMatchesFrozen pins ApproxLinear to its predecessor
// bit for bit on y, dx, dW and db over a calibrating step and two wide
// steps whose inputs clip on both sides, and on Infer, for every shape
// of denseShapes, a dense and a quarter-sparse dy, and every pinned
// forward row × backward label (all of them reached, checked at the
// end).
func TestApproxLinearMatchesFrozen(t *testing.T) {
	ops := denseOps(t)
	reached := map[string]bool{}
	for _, fwd := range fwdLabels() {
		for _, bwd := range bwdLabels() {
			op := ops[fwd+"/"+bwd]
			for _, sh := range denseShapes() {
				for _, sparse := range []bool{false, true} {
					n, in, out := sh[0], sh[1], sh[2]
					t.Run(fmt.Sprintf("%s/%s/%dx%d->%d/sparse=%v", fwd, bwd, n, in, out, sparse), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(n*1000 + in*10 + out)))
						l := NewApproxLinear("fc", in, out, op, rng)
						seedParams(rng, l.Weight, l.Bias)
						o := &frozenApproxLinear{name: "fc", In: in, Out: out, op: op,
							Weight: cloneParam(l.Weight), Bias: cloneParam(l.Bias)}
						var clipped bool
						for step := 0; step < 3; step++ {
							// Calibrate on a narrow batch, then step on wide ones:
							// the moving-average range covers a fraction of them.
							x := denseInput(rng, n, in, 0.3)
							if step > 0 {
								x = denseInput(rng, n, in, 2)
								x.Data[0], x.Data[len(x.Data)-1] = -50, 50
							}
							requireSameBits(t, "y", l.Forward(x, true).Data, o.Forward(x, true).Data)
							dy := denseGrad(t, rng, n, out, sparse)
							reached["fwd "+op.ForwardPath(n, out, in)] = true
							reached["bwd "+op.BackwardPath(dy.Data)] = true
							for _, c := range o.xClip {
								clipped = clipped || c
							}
							requireSameBits(t, "dx", l.Backward(dy).Data, o.Backward(dy).Data)
							requireSameBits(t, "dW", l.Weight.Grad.Data, o.Weight.Grad.Data)
							requireSameBits(t, "db", l.Bias.Grad.Data, o.Bias.Grad.Data)
						}
						if !clipped {
							t.Fatal("no input element clipped: the mask went untested")
						}
						x := denseInput(rng, n, in, 1)
						requireSameBits(t, "Infer", l.Infer(x).Data, o.Infer(x).Data)
					})
				}
			}
		}
	}
	for _, l := range fwdLabels() {
		if (l == FwdPathArith || l == FwdPathArithSkinny) && !hasGemmAsm {
			continue
		}
		if !reached["fwd "+l] {
			t.Errorf("no case dispatched to forward row %q", l)
		}
	}
	for _, l := range bwdLabels() {
		if !reached["bwd "+l] {
			t.Errorf("no case dispatched to backward label %q", l)
		}
	}
}

// frozenLinear is the float Linear as it was before it became a 1x1
// convolution.
type frozenLinear struct {
	name    string
	In, Out int
	Weight  *Param
	Bias    *Param
	x       *tensor.Tensor

	// Infer's output and its matmul dispatch, reused across calls.
	out *tensor.Tensor
	mm  matMulTransBJob
}

func (l *frozenLinear) check(x *tensor.Tensor) {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", l.name, l.In, x.Shape))
	}
}

// Forward is the frozen Linear.Forward; tensor.MatMulTransB was
// New + MatMulTransBJob.Run.
func (l *frozenLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.check(x)
	l.x = x
	out := tensor.New(x.Shape[0], l.Weight.Value.Shape[0])
	var mm matMulTransBJob
	mm.Run(out, x, l.Weight.Value)
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

func (l *frozenLinear) Infer(x *tensor.Tensor) *tensor.Tensor {
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

// Backward is the frozen Linear.Backward; tensor.MatMulTransA and
// tensor.MatMul were New + their Into forms.
func (l *frozenLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	// dW = dyᵀ x; db = sum dy; dx = dy W.
	dW := tensor.New(dy.Shape[1], l.x.Shape[1])
	matMulTransAInto(dW, dy, l.x)
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
	dx := tensor.New(dy.Shape[0], l.Weight.Value.Shape[1])
	matMulInto(dx, dy, l.Weight.Value)
	return dx
}

// frozenApproxLinear is ApproxLinear as it was before it became a 1x1
// convolution.
type frozenApproxLinear struct {
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
	xT      []uint8
	xClipT  []bool
	px      quant.Params

	// Scratch arena: buffers sized on first use, reused every step.
	ks   KernelScratch
	out  *tensor.Tensor
	dx   *tensor.Tensor
	dw   []float32
	gsum []float32
}

func (l *frozenApproxLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.checkInput(x)
	l.lag.observe(&l.Observer, x, train)
	return l.forward(x, true)
}

func (l *frozenApproxLinear) Infer(x *tensor.Tensor) *tensor.Tensor {
	l.checkInput(x)
	if !l.Observer.Seen() {
		l.Observer.Observe(x)
	}
	return l.forward(x, false)
}

func (l *frozenApproxLinear) checkInput(x *tensor.Tensor) {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: %s expects (N,%d), got %v", l.name, l.In, x.Shape))
	}
}

func (l *frozenApproxLinear) forward(x *tensor.Tensor, withClip bool) *tensor.Tensor {
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
	// The layer's own operand transpose and weight side.
	l.xT, l.xClipT = kMajor(l.xq, xClip, l.rows, l.In)
	l.out = tensor.Ensure2(l.out, l.rows, l.Out)
	l.op.forwardT(&l.ks, l.out.Data, l.xT, &l.w, l.rows, 1, l.px, l.Bias.Value.Data)
	return l.out
}

func (l *frozenApproxLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if !l.trained {
		panic(fmt.Sprintf("nn: %s: Backward must follow Forward; Infer records no clip flags", l.name))
	}
	l.dw = grow(l.dw, l.Out*l.In)
	l.gsum = grow(l.gsum, l.Out)
	dxT := make([]float32, l.In*l.rows)
	l.op.BackwardGEMM(&l.ks, l.dw, dxT, l.gsum, dy.Data, l.xT, l.w.wq, l.xClipT, l.w.wClip,
		l.rows, l.Out, l.In, l.w.pw, l.px)
	l.dx = tensor.Ensure2(l.dx, l.rows, l.In)
	copy(l.dx.Data, rowMajor(dxT, l.rows, l.In))
	for i, v := range l.dw {
		l.Weight.Grad.Data[i] += v
	}
	for j, v := range l.gsum {
		l.Bias.Grad.Data[j] += v
	}
	return l.dx
}

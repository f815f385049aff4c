package nn

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/tensor"
)

// Conv2D is a float 2-D convolution (NCHW, square kernel), the exact
// counterpart of ApproxConv2D and the layer of float pre-training (the
// float Linear is its 1x1 case), on ApproxConv2D's data path:
// tensor.Im2ColTJob builds the k-major patch matrix xT (k x rows,
// padding +0), the forward GEMM writes NCHW, the backward GEMMs leave
// dxT k-major for tensor.Col2ImTJob.
//
// Every sum runs in the row-major formulation's order, so the results
// equal it bit for bit (TestConv2DMatchesRowMajor): y over taps from +0,
// then + bias; dW over rows from +0, then into its gradient; the bias
// gradient into its gradient over rows; dxT over channels from +0. A
// sparse dy (sparseGrad) walks lists of its nonzero entries, skipping
// the zero products the row-major GEMMs skip; a dense dy runs
// branch-free loops that include them, which changes no bit while the
// other factor is finite but no longer skips 0·Inf or 0·NaN products.
type Conv2D struct {
	name           string
	InC, OutC      int
	K, Stride, Pad int
	Weight, Bias   *Param
	geom           tensor.ConvGeom
	batch          int

	// Scratch arena, sized on first use: xT is also Backward's cache, dyT
	// (outC x rows) and nz its operands. withDX says whether the backward
	// pass computes dxT; a model's first layer never sizes dxT or dx.
	im2col       tensor.Im2ColTJob[float32]
	col2im       tensor.Col2ImTJob
	xT, dxT, dyT []float32
	y, dx        *tensor.Tensor
	sparse       bool
	withDX       bool
	nz           nonzeros
	grads        gradCuts
}

// NewConv2D constructs a convolution with Kaiming-initialized weights.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: newParam(name+".weight", outC, inC, k, k),
		Bias:   newParam(name+".bias", outC),
	}
	c.Weight.Value.KaimingInit(rng, inC*k*k)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward implements Layer. The returned tensor is owned by the layer
// and valid until the next Forward call.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s expects NCHW with C=%d, got %v", c.name, c.InC, x.Shape))
	}
	g := tensor.Geometry(c.InC, x.Shape[2], x.Shape[3], c.OutC, c.K, c.K, c.Stride, c.Pad)
	c.geom = g
	c.batch = x.Shape[0]
	rows := c.batch * g.OutH * g.OutW
	c.xT = grow(c.xT, g.K()*rows)
	c.im2col.Run(c.xT, x.Data, c.batch, g, 0)
	c.y = tensor.Ensure4(c.y, c.batch, g.OutC, g.OutH, g.OutW)
	tensor.ParallelRowsOn(c.OutC*((rows+convRowBlock-1)/convRowBlock), (*convForward)(c))
	return c.y
}

// Backward implements Layer. The returned tensor is owned by the layer
// and valid until the next Backward call.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor { return c.backward(dy, true) }

// backwardParams implements paramGrader: Backward without the input
// gradient.
func (c *Conv2D) backwardParams(dy *tensor.Tensor) { c.backward(dy, false) }

// backward accumulates the weight and bias gradients, per slice of the
// batch (gradCuts.to), and, withDX, returns the input gradient.
func (c *Conv2D) backward(dy *tensor.Tensor, withDX bool) *tensor.Tensor {
	g := c.geom
	hw := g.OutH * g.OutW
	rows := c.batch * hw
	c.grads.to(c.Weight, c.Bias, c.batch, hw)
	cuts := c.grads.cuts
	// dy channel-major (outC x rows), so the GEMM loops run over all
	// images at once; the same scan accumulates the bias gradient.
	c.dyT = grow(c.dyT, len(dy.Data))
	for oc := 0; oc < c.OutC; oc++ {
		for s, db := range c.grads.db {
			bg := db[oc]
			for img := cuts[s] / hw; img < cuts[s+1]/hw; img++ {
				plane := dy.Data[(img*c.OutC+oc)*hw:][:hw]
				copy(c.dyT[oc*rows+img*hw:], plane)
				for _, v := range plane {
					bg += v
				}
			}
			db[oc] = bg
		}
	}
	nnz, sparse := sparseGrad(dy.Data)
	if c.sparse = sparse; sparse {
		c.nz.build(nil, c.dyT, cuts, c.OutC, rows, nnz)
	}
	if c.withDX = withDX; withDX {
		c.dxT = grow(c.dxT, g.K()*rows)
	}
	tensor.ParallelRowsOn(g.K(), (*convBackward)(c))
	if !withDX {
		return nil
	}
	c.dx = tensor.Ensure4(c.dx, c.batch, g.InC, g.InH, g.InW)
	c.col2im.Run(c.dx.Data, c.dxT, c.batch, g)
	return c.dx
}

// convRowBlock is the forward work item: one channel's outputs for this
// many rows, accumulated on the stack.
const convRowBlock = 256

// The GEMM passes' RangeRunners are the layer under other names, so
// scheduling them allocates nothing.
type (
	convForward  Conv2D
	convBackward Conv2D
)

// RunRange computes work items [lo, hi), item = row block * OutC + oc:
// every output sums its taps' products, i ascending from +0, four taps
// per sweep of the accumulator, and is written to its NCHW position
// plus the bias.
func (f *convForward) RunRange(lo, hi int) {
	c := (*Conv2D)(f)
	k, hw := c.geom.K(), c.geom.OutH*c.geom.OutW
	rows := c.batch * hw
	var buf [convRowBlock]float32
	for it := lo; it < hi; it++ {
		oc, r0 := it%c.OutC, it/c.OutC*convRowBlock
		acc := buf[:min(convRowBlock, rows-r0)]
		clear(acc)
		w := c.Weight.Value.Data[oc*k:][:k]
		i := 0
		for ; i+4 <= k; i += 4 {
			x0 := c.xT[i*rows+r0:][:len(acc)]
			x1 := c.xT[(i+1)*rows+r0:][:len(acc)]
			x2 := c.xT[(i+2)*rows+r0:][:len(acc)]
			x3 := c.xT[(i+3)*rows+r0:][:len(acc)]
			w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
			for r, v := range acc {
				v += float32(x0[r] * w0)
				v += float32(x1[r] * w1)
				v += float32(x2[r] * w2)
				v += float32(x3[r] * w3)
				acc[r] = v
			}
		}
		for ; i < k; i++ {
			x, wi := c.xT[i*rows+r0:][:len(acc)], w[i]
			for r, v := range x {
				acc[r] += float32(v * wi)
			}
		}
		b := c.Bias.Value.Data[oc]
		for r := r0; r < r0+len(acc); {
			img, p := r/hw, r%hw
			y := c.y.Data[(img*c.OutC+oc)*hw+p:][:min(hw-p, r0+len(acc)-r)]
			for j, v := range acc[r-r0:][:len(y)] {
				y[j] = v + b
			}
			r += len(y)
		}
	}
}

// RunRange computes the weight gradients of taps [lo, hi) and, withDX,
// their rows of dxT in one walk of dy per (tap, channel): dW[oc][i] sums
// over each slice's r ascending from +0 and is added into that slice's
// gradient, dxT[i][r] sums over oc ascending from +0.
func (b *convBackward) RunRange(lo, hi int) {
	c := (*Conv2D)(b)
	k := c.geom.K()
	rows := c.batch * c.geom.OutH * c.geom.OutW
	cuts := c.grads.cuts
	for i := lo; i < hi; i++ {
		x := c.xT[i*rows:][:rows]
		var d []float32
		if c.withDX {
			d = c.dxT[i*rows:][:rows]
			clear(d)
		}
		for oc := 0; oc < c.OutC; oc++ {
			w := c.Weight.Value.Data[oc*k+i]
			for s, dw := range c.grads.dw {
				var acc float32
				if c.sparse {
					nzR, nzG := c.nz.list(oc, s)
					if d == nil {
						for j, r := range nzR {
							acc += float32(nzG[j] * x[r])
						}
					} else {
						for j, r := range nzR {
							g := nzG[j]
							acc += float32(g * x[r])
							d[r] += float32(g * w)
						}
					}
				} else if r0, r1 := cuts[s], cuts[s+1]; d == nil {
					for r, g := range c.dyT[oc*rows+r0 : oc*rows+r1] {
						acc += float32(g * x[r0+r])
					}
				} else {
					for r, g := range c.dyT[oc*rows+r0 : oc*rows+r1] {
						acc += float32(g * x[r0+r])
						d[r0+r] += float32(g * w)
					}
				}
				dw[oc*k+i] += acc
			}
		}
	}
}

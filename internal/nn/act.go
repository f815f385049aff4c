package nn

import (
	"math"

	"github.com/appmult/retrain/internal/tensor"
)

// ReLU is the rectified linear activation. Its loops are branch-free:
// the sign of an activation is a coin flip the predictor loses.
type ReLU struct {
	// keep holds 1 where Forward's input was not negative, else 0.
	keep    []uint8
	out, dx *tensor.Tensor
	run     reluRun
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// negative returns 1 when the float32 with these bits is < 0 and 0
// otherwise: exactly the patterns 0x80000001 (the smallest negative
// denormal) through 0xFF800000 (-Inf) — not -0, not a NaN of either
// sign, which therefore pass through the rectifier as they do through
// `if v < 0`.
func negative(bits uint32) uint32 {
	return uint32((uint64(bits-0x80000001) - 0x7F800000) >> 63)
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	r.keep = grow(r.keep, len(x.Data))
	r.run = reluRun{src: x.Data, dst: r.out.Data, keep: r.keep}
	runPass(&r.run, len(x.Data), len(x.Data), x.Shape[0], reluBlock)
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	r.dx = tensor.Ensure(r.dx, dy.Shape...)
	r.run = reluRun{src: dy.Data, dst: r.dx.Data, keep: r.keep, backward: true}
	runPass(&r.run, len(dy.Data), len(dy.Data), dy.Shape[0], reluBlock)
	return r.dx
}

// reluBlock is the ReLU passes' work item on the pool, in elements.
const reluBlock = 8192

// reluRun is the ReLU passes' body over elements [lo, hi): the forward
// rectifies src into dst and records keep, the backward masks the
// gradient src into dst with it.
type reluRun struct {
	src, dst []float32
	keep     []uint8
	backward bool
}

func (t *reluRun) RunRange(lo, hi int) {
	src := t.src[lo:hi]
	dst, keep := t.dst[lo:hi][:len(src)], t.keep[lo:hi][:len(src)]
	if t.backward {
		n := reluMaskBlocks(dst, src, keep)
		src, dst, keep = src[n:], dst[n:], keep[n:]
		for i, g := range src {
			dst[i] = math.Float32frombits(math.Float32bits(g) & -uint32(keep[i]))
		}
		return
	}
	n := reluBlocks(dst, keep, src)
	src, dst, keep = src[n:], dst[n:], keep[n:]
	for i, v := range src {
		b := math.Float32bits(v)
		neg := negative(b)
		keep[i] = uint8(neg ^ 1)
		dst[i] = math.Float32frombits(b & (neg - 1))
	}
}

// pooledElems is the size from which the BatchNorm, ReLU and max-pool
// passes run on the worker pool. Below it, batch-1 inference included,
// the pass stays on the caller: a hand-off would cost more than it
// saves. (A variable only so the tests can run both paths.)
var pooledElems = 32 << 10

// runPass runs r over its n work items, on the worker pool when the pass
// touches more than pooledElems elements — in shares of whole images
// when the items are grouped by images (1 for a per-channel pass), and
// blocks of chunk items (0: the pool's grain) — and inline otherwise.
func runPass(r tensor.RangeRunner, elems, n, images, chunk int) {
	if elems > pooledElems {
		tensor.ParallelImagesOn(n, n/images, chunk, r)
		return
	}
	r.RunRange(0, n)
}

// Infer implements Inferer: the rectification without the sign mask.
func (r *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	r.out = tensor.Ensure(r.out, x.Shape...)
	n := reluBlocks(r.out.Data, nil, x.Data)
	out := r.out.Data[n:]
	for i, v := range x.Data[n:] {
		b := math.Float32bits(v)
		out[i] = math.Float32frombits(b & (negative(b) - 1))
	}
	return r.out
}

// Flatten reshapes NCHW (or any >=2-D) input to (N, rest).
type Flatten struct {
	inShape []int
	view    tensor.Tensor // Infer's result
}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	n := x.Shape[0]
	return x.Reshape(n, x.Numel()/n)
}

// Infer implements Inferer: the same view of x's data, held in the layer
// instead of allocated.
func (f *Flatten) Infer(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	f.view.Shape = append(f.view.Shape[:0], n, x.Numel()/n)
	f.view.Data = x.Data
	return &f.view
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

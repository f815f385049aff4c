// Package tensor provides the dense float32 tensor underlying the
// neural-network substrate: shape algebra, elementwise and reduction
// operations, random initialization, and the k-major im2col/col2im the
// convolution layers run on (the GEMMs are the layers' own; the dense
// layers are 1x1 convolutions).
//
// It replaces the role PyTorch plays in the paper's framework; only the
// operations the retraining experiments need are implemented, but those
// are implemented carefully (a persistent worker pool, O(1)-allocation
// iteration).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	// Shape holds the dimension sizes, outermost first.
	Shape []int
	// Data is the row-major backing slice, of length Numel().
	Data []float32
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps an existing slice (not copied) in a tensor of the
// given shape. The slice length must equal the shape's element count.
func FromData(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Ensure returns a tensor of the given shape, reusing t's backing
// storage when its capacity suffices (the contents are then
// unspecified, not zeroed). A nil t allocates fresh. It is the
// building block of the layers' scratch-buffer arenas: buffers are
// allocated once on the first step and reused for the rest of
// training.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := checkShape(shape)
	if t == nil || cap(t.Data) < n {
		return New(shape...)
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = t.Data[:n]
	return t
}

// Ensure2 is Ensure for a fixed 2-D shape. The variadic Ensure's shape
// slice escapes to the heap at every call site (the panic paths format
// it), which costs one allocation per call even in steady state; the
// fixed-arity forms take plain ints, so per-step arena call sites stay
// allocation-free.
func Ensure2(t *Tensor, d0, d1 int) *Tensor {
	if d0 <= 0 || d1 <= 0 {
		panic(fmt.Sprintf("tensor: non-positive dimension in shape [%d %d]", d0, d1))
	}
	n := d0 * d1
	if t == nil || cap(t.Data) < n {
		return New(d0, d1)
	}
	t.Shape = append(t.Shape[:0], d0, d1)
	t.Data = t.Data[:n]
	return t
}

// Ensure4 is Ensure2 for a fixed 4-D (NCHW) shape.
func Ensure4(t *Tensor, d0, d1, d2, d3 int) *Tensor {
	if d0 <= 0 || d1 <= 0 || d2 <= 0 || d3 <= 0 {
		panic(fmt.Sprintf("tensor: non-positive dimension in shape [%d %d %d %d]", d0, d1, d2, d3))
	}
	n := d0 * d1 * d2 * d3
	if t == nil || cap(t.Data) < n {
		return New(d0, d1, d2, d3)
	}
	t.Shape = append(t.Shape[:0], d0, d1, d2, d3)
	t.Data = t.Data[:n]
	return t
}

// ViewRows returns a view of rows [lo, hi) of t's outermost dimension,
// sharing t's backing storage (no copy). It is how the sharded trainer
// hands each replica its contiguous slice of a minibatch: mutating the
// view's data mutates t.
func ViewRows(t *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > t.Shape[0] || lo >= hi {
		panic(fmt.Sprintf("tensor: row view [%d, %d) out of range for shape %v", lo, hi, t.Shape))
	}
	stride := len(t.Data) / t.Shape[0]
	shape := append([]int{hi - lo}, t.Shape[1:]...)
	return &Tensor{Shape: shape, Data: t.Data[lo*stride : hi*stride]}
}

// Numel returns the total element count.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view sharing t's data with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at a multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// set writes the element at a multi-index.
func (t *Tensor) set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong arity for shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Add accumulates o into t elementwise. Shapes must match exactly.
func (t *Tensor) Add(o *Tensor) {
	t.checkSame(o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// AddScaled accumulates s*o into t elementwise.
func (t *Tensor) AddScaled(o *Tensor, s float32) {
	t.checkSame(o)
	for i, v := range o.Data {
		t.Data[i] += float32(s * v)
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

func (t *Tensor) checkSame(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic(fmt.Sprintf("tensor: size mismatch %v vs %v", t.Shape, o.Shape))
	}
}

// MinMax returns the smallest and largest elements.
func (t *Tensor) MinMax() (mn, mx float32) {
	mn, mx = t.Data[0], t.Data[0]
	for _, v := range t.Data[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// AllFinite reports whether no element of x is NaN or ±Inf. An exponent
// field of all ones is exactly those, so the test is a mask and a
// compare per element, eight lanes at a time on AVX2.
func AllFinite(x []float32) bool {
	n, ok := finiteBlocks(x)
	if !ok {
		return false
	}
	for _, v := range x[n:] {
		if math.Float32bits(v)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// RandNormal fills t with N(0, std) samples from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// KaimingInit fills t with He-normal initialization for a layer with
// the given fan-in, the standard initialization for ReLU networks.
func (t *Tensor) KaimingInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, std)
}

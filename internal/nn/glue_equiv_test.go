package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/appmult/retrain/internal/tensor"
)

// This file pins the glue layers — ReLU, BatchNorm2D (plain and sync),
// MaxPool2D, GlobalAvgPool, Residual — to the loops they had before
// they took ownership of their buffers and lost their branches. The
// frozen* types at the bottom are verbatim copies of those loops
// (allocating, branchy, one float64 divide per batch-norm gradient
// element) and exist only as the oracle here; every output, input
// gradient, parameter gradient and running statistic of the real layers
// must equal theirs to the bit, in training, evaluation and Infer, over
// consecutive steps whose batch sizes grow and shrink the owned
// buffers, on data that holds -0, denormals, ±Inf and NaN.

// glueFlavours are the input mixes. NaN and ±Inf are kept apart so that
// one run only ever holds NaNs of one payload (the input's, or the
// default one Inf-Inf makes): which payload survives NaN+NaN depends on
// operand order, which is the compiler's choice, not the layers'.
var glueFlavours = []struct {
	name    string
	special []float32
}{
	{"plain", nil},
	{"inf", []float32{float32(math.Copysign(0, -1)), 0, 1e-42, -1e-42, float32(math.Inf(1)), float32(math.Inf(-1))}},
	{"nan", []float32{float32(math.Copysign(0, -1)), 0, 1e-42, -1e-42, float32(math.NaN())}},
}

// glueTensor returns a random tensor with one element in six replaced
// by a special value.
func glueTensor(rng *rand.Rand, special []float32, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandNormal(rng, 1)
	for i := range t.Data {
		if len(special) > 0 && rng.Intn(6) == 0 {
			t.Data[i] = special[rng.Intn(len(special))]
		}
	}
	return t
}

func glueBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, frozen layer %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), frozen layer %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func glueSame(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, frozen layer %v", what, got.Shape, want.Shape)
	}
	glueBits(t, what, got.Data, want.Data)
}

// gluePair is a rewritten layer next to its frozen twin; bns and
// twinBNs list the batch norms inside the two, in matching order.
type gluePair struct {
	name        string
	layer, twin Layer
	bns         []*BatchNorm2D
	twinBNs     []*frozenBatchNorm2D
	shapes      [][]int // consecutive steps: grow, shrink, regrow
}

func seedBN(gamma, beta, mean, vr []float32) {
	for i := range gamma {
		gamma[i] = 1 + 0.1*float32(i)
		beta[i] = 0.05 * float32(i)
		mean[i] = 0.2 * float32(i)
		vr[i] = 1 + 0.3*float32(i)
	}
}

func bnPair(c int) (*BatchNorm2D, *frozenBatchNorm2D) {
	b, f := NewBatchNorm2D("bn", c), newFrozenBatchNorm2D("bn", c)
	seedBN(b.Gamma.Value.Data, b.Beta.Value.Data, b.RunningMean.Data, b.RunningVar.Data)
	seedBN(f.Gamma.Value.Data, f.Beta.Value.Data, f.RunningMean.Data, f.RunningVar.Data)
	return b, f
}

// planes runs c channels through every plane size the AVX2 kernels
// treat differently — 1×1 and 2×2 (the reductions' adjacent-channel and
// four-position paths), 3×3 and 5×5 (odd, so the loops take them, and a
// 2×2 pool drops a row and a column), 4×4, 8×8 and 16×16 — at element
// counts that are and are not multiples of 8.
func planes(c int) [][]int {
	return [][]int{{3, c, 1, 1}, {2, c, 3, 3}, {5, c, 5, 5}, {4, c, 2, 2}, {3, c, 4, 4}, {2, c, 8, 8}, {1, c, 16, 16}, {3, c, 5, 5}}
}

// poolable is planes with sides of at least k, plus planes of unequal
// sides: the ones a k×k window covers.
func poolable(c, k int) [][]int {
	var out [][]int
	for _, s := range append(planes(c), []int{3, c, 7, 4}, []int{2, c, 4, 9}) {
		if s[2] >= k && s[3] >= k {
			out = append(out, s)
		}
	}
	return out
}

func gluePairs() []gluePair {
	nchw := [][]int{{3, 4, 6, 6}, {5, 4, 8, 8}, {2, 4, 6, 6}, {5, 4, 8, 8}}
	bn, fbn := bnPair(4)
	bn6, fbn6 := bnPair(6)
	bn9, fbn9 := bnPair(9)
	mainBN, fMainBN := bnPair(4)
	shortBN, fShortBN := bnPair(4)
	idBN, fIDBN := bnPair(4)
	return []gluePair{
		{name: "relu", layer: NewReLU(), twin: newFrozenReLU(), shapes: nchw},
		{name: "relu/planes", layer: NewReLU(), twin: newFrozenReLU(), shapes: planes(3)},
		{name: "relu/2d", layer: NewReLU(), twin: newFrozenReLU(), shapes: [][]int{{3, 10}, {7, 33}, {1, 5}}},
		{name: "maxpool2x2", layer: NewMaxPool2D(2, 2), twin: newFrozenMaxPool2D(2, 2), shapes: nchw},
		{name: "maxpool2x2/c5", layer: NewMaxPool2D(2, 2), twin: newFrozenMaxPool2D(2, 2), shapes: poolable(5, 2)},
		{name: "maxpool2x2/c6", layer: NewMaxPool2D(2, 2), twin: newFrozenMaxPool2D(2, 2), shapes: poolable(6, 2)},
		{name: "maxpool3x3s2", layer: NewMaxPool2D(3, 2), twin: newFrozenMaxPool2D(3, 2), shapes: nchw},
		{name: "maxpool3x3s2/c5", layer: NewMaxPool2D(3, 2), twin: newFrozenMaxPool2D(3, 2), shapes: poolable(5, 3)},
		{name: "gap", layer: NewGlobalAvgPool(), twin: newFrozenGlobalAvgPool(), shapes: nchw},
		{name: "batchnorm", layer: bn, twin: fbn, bns: []*BatchNorm2D{bn}, twinBNs: []*frozenBatchNorm2D{fbn}, shapes: nchw},
		{name: "batchnorm/c6", layer: bn6, twin: fbn6, bns: []*BatchNorm2D{bn6}, twinBNs: []*frozenBatchNorm2D{fbn6}, shapes: planes(6)},
		{name: "batchnorm/c9", layer: bn9, twin: fbn9, bns: []*BatchNorm2D{bn9}, twinBNs: []*frozenBatchNorm2D{fbn9}, shapes: planes(9)},
		{name: "residual/identity",
			layer:   NewResidual("res", NewSequential("main", idBN, NewReLU()), nil),
			twin:    newFrozenResidual("res", NewSequential("main", fIDBN, newFrozenReLU()), nil),
			bns:     []*BatchNorm2D{idBN},
			twinBNs: []*frozenBatchNorm2D{fIDBN}, shapes: nchw},
		{name: "residual/projection",
			layer:   NewResidual("res", NewSequential("main", mainBN, NewReLU(), NewMaxPool2D(2, 2)), NewSequential("short", shortBN, NewMaxPool2D(2, 2))),
			twin:    newFrozenResidual("res", NewSequential("main", fMainBN, newFrozenReLU(), newFrozenMaxPool2D(2, 2)), NewSequential("short", fShortBN, newFrozenMaxPool2D(2, 2))),
			bns:     []*BatchNorm2D{mainBN, shortBN},
			twinBNs: []*frozenBatchNorm2D{fMainBN, fShortBN}, shapes: nchw},
	}
}

// compareState checks parameter gradients and running statistics.
func (p *gluePair) compareState(t *testing.T, when string) {
	t.Helper()
	lp, tp := p.layer.Params(), p.twin.Params()
	for i := range tp {
		glueBits(t, when+": grad "+tp[i].Name, lp[i].Grad.Data, tp[i].Grad.Data)
	}
	for i := range p.twinBNs {
		glueBits(t, when+": running mean", p.bns[i].RunningMean.Data, p.twinBNs[i].RunningMean.Data)
		glueBits(t, when+": running var", p.bns[i].RunningVar.Data, p.twinBNs[i].RunningVar.Data)
	}
}

// TestGlueLayersMatchFrozenLoops is the equivalence described at the top
// of the file, for every layer, flavour and mode. Gradients accumulate
// across the steps (no ZeroGrads), so a step's error cannot hide.
func TestGlueLayersMatchFrozenLoops(t *testing.T) {
	for _, fl := range glueFlavours {
		for _, p := range gluePairs() {
			p := p
			t.Run(p.name+"/"+fl.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(31))
				for step, shape := range p.shapes {
					for _, train := range []bool{true, false} {
						when := fmt.Sprintf("step %d train=%v", step, train)
						x := glueTensor(rng, fl.special, shape...)
						want := p.twin.Forward(x, train)
						glueSame(t, when+": out", p.layer.Forward(x, train), want)
						dy := glueTensor(rng, fl.special, want.Shape...)
						glueSame(t, when+": dx", p.layer.Backward(dy), p.twin.Backward(dy))
						p.compareState(t, when)
					}
					x := glueTensor(rng, fl.special, shape...)
					when := fmt.Sprintf("step %d infer", step)
					glueSame(t, when+": out", Infer(p.layer, x), Infer(p.twin, x))
					glueSame(t, when+": out vs eval forward", Infer(p.layer, x), p.twin.Forward(x, false))
					p.compareState(t, when)
				}
			})
		}
	}
}

// TestSyncBNMatchesFrozenLoops runs the sync-BN paths — one participant
// and two, each pair of layers on its own group — against the frozen
// copy: per participant, outputs, input gradients, local parameter
// gradients and running statistics equal to the bit, over steps whose
// shard sizes change.
func TestSyncBNMatchesFrozenLoops(t *testing.T) {
	const c = 4
	for _, parts := range []int{1, 2} {
		for _, fl := range glueFlavours {
			t.Run(fmt.Sprintf("parts%d/%s", parts, fl.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(37))
				group, twinGroup := NewBNSyncGroup(c), NewBNSyncGroup(c)
				layers := make([]*BatchNorm2D, parts)
				twins := make([]*frozenBatchNorm2D, parts)
				for i := range layers {
					layers[i], twins[i] = bnPair(c)
					layers[i].SetSyncGroup(group, i)
					twins[i].SetSyncGroup(twinGroup, i)
				}
				for step, n := range []int{2, 5, 1, 5} {
					group.Configure(parts)
					twinGroup.Configure(parts)
					var wg sync.WaitGroup
					// One goroutine per participant and implementation; the
					// comparisons run after the barriers have released
					// everyone. Shard sizes differ between participants.
					out, dx := make([]*tensor.Tensor, 2*parts), make([]*tensor.Tensor, 2*parts)
					for i := 0; i < parts; i++ {
						x := glueTensor(rng, fl.special, n+i, c, 5, 5)
						dy := glueTensor(rng, fl.special, n+i, c, 5, 5)
						for j, l := range []Layer{layers[i], twins[i]} {
							wg.Add(1)
							go func(slot int, l Layer) {
								defer wg.Done()
								out[slot] = l.Forward(x, true)
								dx[slot] = l.Backward(dy)
							}(2*i+j, l)
						}
					}
					wg.Wait()
					for i := 0; i < parts; i++ {
						when := fmt.Sprintf("step %d participant %d", step, i)
						glueSame(t, when+": out", out[2*i], out[2*i+1])
						glueSame(t, when+": dx", dx[2*i], dx[2*i+1])
						p := gluePair{layer: layers[i], twin: twins[i], bns: layers[i : i+1], twinBNs: twins[i : i+1]}
						p.compareState(t, when)
					}
				}
			})
		}
	}
}

// TestReLUNegativeBitTest checks the branch-free sign test against the
// comparison it replaces on every float32 class boundary.
func TestReLUNegativeBitTest(t *testing.T) {
	for _, b := range []uint32{0, 1, 0x007FFFFF, 0x00800000, 0x3F800000, 0x7F7FFFFF, 0x7F800000, 0x7F800001, 0x7FC00000, 0x7FFFFFFF,
		0x80000000, 0x80000001, 0x807FFFFF, 0x80800000, 0xBF800000, 0xFF7FFFFF, 0xFF800000, 0xFF800001, 0xFFC00000, 0xFFFFFFFF} {
		want := uint32(0)
		if math.Float32frombits(b) < 0 {
			want = 1
		}
		if got := negative(b); got != want {
			t.Errorf("negative(%#08x) = %d, v < 0 is %d", b, got, want)
		}
	}
}

// ---------------------------------------------------------------------
// The frozen loops: the glue layers as they were before the rewrite,
// copied verbatim (types renamed). Test-only; do not tidy.

// frozenReLU is the rectified linear activation.
type frozenReLU struct {
	mask []bool
}

// newFrozenReLU returns a frozenReLU layer.
func newFrozenReLU() *frozenReLU { return &frozenReLU{} }

// Name implements Layer.
func (r *frozenReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *frozenReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *frozenReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *frozenReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := dy.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// frozenMaxPool2D is a max pooling layer with square window and stride.
type frozenMaxPool2D struct {
	K, Stride int
	inShape   []int
	argmax    []int
}

// newFrozenMaxPool2D returns a max pooling layer (window k, stride s).
func newFrozenMaxPool2D(k, s int) *frozenMaxPool2D {
	if k < 1 || s < 1 {
		panic("nn: invalid pooling geometry")
	}
	return &frozenMaxPool2D{K: k, Stride: s}
}

// Name implements Layer.
func (p *frozenMaxPool2D) Name() string { return fmt.Sprintf("maxpool%dx%d", p.K, p.K) }

// Params implements Layer.
func (p *frozenMaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *frozenMaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.K)/p.Stride + 1
	ow := (w-p.K)/p.Stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: maxpool output collapses for input %v", x.Shape))
	}
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := tensor.New(n, c, oh, ow)
	p.argmax = make([]int, out.Numel())
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			in := x.Data[(img*c+ch)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					bestIdx := (oy*p.Stride)*w + ox*p.Stride
					best := in[bestIdx]
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := (oy*p.Stride+ky)*w + ox*p.Stride + kx
							if in[idx] > best {
								best = in[idx]
								bestIdx = idx
							}
						}
					}
					o := ((img*c+ch)*oh+oy)*ow + ox
					out.Data[o] = best
					p.argmax[o] = (img*c+ch)*h*w + bestIdx
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *frozenMaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.inShape...)
	for o, src := range p.argmax {
		dx.Data[src] += dy.Data[o]
	}
	return dx
}

// frozenGlobalAvgPool averages each channel's spatial map to a single value,
// producing (N, C, 1, 1) — the ResNet head pooling.
type frozenGlobalAvgPool struct {
	inShape []int
}

// newFrozenGlobalAvgPool returns a global average pooling layer.
func newFrozenGlobalAvgPool() *frozenGlobalAvgPool { return &frozenGlobalAvgPool{} }

// Name implements Layer.
func (p *frozenGlobalAvgPool) Name() string { return "gap" }

// Params implements Layer.
func (p *frozenGlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (p *frozenGlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.inShape = append(p.inShape[:0], x.Shape...)
	out := tensor.New(n, c, 1, 1)
	hw := h * w
	for i := 0; i < n*c; i++ {
		var s float64
		for _, v := range x.Data[i*hw : (i+1)*hw] {
			s += float64(v)
		}
		out.Data[i] = float32(s / float64(hw))
	}
	return out
}

// Backward implements Layer.
func (p *frozenGlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	h, w := p.inShape[2], p.inShape[3]
	hw := h * w
	dx := tensor.New(p.inShape...)
	inv := 1 / float32(hw)
	for i := 0; i < p.inShape[0]*p.inShape[1]; i++ {
		g := dy.Data[i] * inv
		for j := 0; j < hw; j++ {
			dx.Data[i*hw+j] = g
		}
	}
	return dx
}

// frozenResidual computes main(x) + shortcut(x) — the ResNet building block
// connective. The shortcut is Identity for same-shape blocks or a
// projection (conv + norm) for dimension changes.
type frozenResidual struct {
	name     string
	Main     Layer
	Shortcut Layer
}

// newFrozenResidual constructs a residual connection. A nil shortcut means
// identity.
func newFrozenResidual(name string, main, shortcut Layer) *frozenResidual {
	if shortcut == nil {
		shortcut = Identity{}
	}
	return &frozenResidual{name: name, Main: main, Shortcut: shortcut}
}

// Name implements Layer.
func (r *frozenResidual) Name() string { return r.name }

// Params implements Layer.
func (r *frozenResidual) Params() []*Param {
	return append(r.Main.Params(), r.Shortcut.Params()...)
}

// Forward implements Layer.
func (r *frozenResidual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m := r.Main.Forward(x, train)
	s := r.Shortcut.Forward(x, train)
	out := m.Clone()
	out.Add(s)
	return out
}

// Backward implements Layer. (layerBackward is the one change to the
// frozen copy: a Sequential's Backward, a model's, returns no input
// gradient, and layerBackward is the full backward it used to run.)
func (r *frozenResidual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dm := layerBackward(r.Main, dy)
	ds := layerBackward(r.Shortcut, dy)
	dx := dm.Clone()
	dx.Add(ds)
	return dx
}

// frozenBatchNorm2D normalizes each channel over (N, H, W) with learnable
// scale/shift and running statistics for evaluation.
type frozenBatchNorm2D struct {
	name     string
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param
	// Running statistics (not trained by gradient).
	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// Forward caches.
	xhat    *tensor.Tensor
	invStd  []float64
	inShape []int

	// Sync-BN hookup (see BNSyncer): when sync is non-nil, training
	// forwards compute full-batch statistics by all-reducing moments
	// across the syncer's participants, and Backward all-reduces the
	// gradient sums the same way.
	sync       BNSyncer
	syncIdx    int
	syncActive bool
	syncCnt    float64
	meanBuf    []float64
	sumBuf     []float64 // local publish buffer (c wide)
	dyBuf      []float64 // local backward dy sums (c wide)
	dyxBuf     []float64 // local backward dy*xhat sums (c wide)
}

// SetSyncGroup attaches the layer to a cross-shard moment syncer as
// participant idx (nil detaches, restoring single-replica behaviour).
// All replicas of a sharded model attach their position-matched
// frozenBatchNorm2D layers to one shared syncer — an in-process BNSyncGroup,
// or a network proxy forwarding to a coordinator-hosted group.
func (b *frozenBatchNorm2D) SetSyncGroup(g BNSyncer, idx int) {
	if g != nil && g.Channels() != b.C {
		panic(fmt.Sprintf("nn: %s has %d channels, sync group %d", b.name, b.C, g.Channels()))
	}
	b.sync = g
	b.syncIdx = idx
	b.syncActive = false
}

// newFrozenBatchNorm2D constructs a batch normalization layer over c channels.
func newFrozenBatchNorm2D(name string, c int) *frozenBatchNorm2D {
	bn := &frozenBatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       newParam(name+".gamma", c),
		Beta:        newParam(name+".beta", c),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.Value.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// Name implements Layer.
func (b *frozenBatchNorm2D) Name() string { return b.name }

// Params implements Layer.
func (b *frozenBatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Forward implements Layer.
func (b *frozenBatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != b.C {
		panic(fmt.Sprintf("nn: %s expects NCHW with C=%d, got %v", b.name, b.C, x.Shape))
	}
	if train && b.sync != nil {
		return b.forwardSync(x)
	}
	b.syncActive = false
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	cnt := float64(n * hw)
	b.inShape = append(b.inShape[:0], x.Shape...)

	out := tensor.New(x.Shape...)
	b.xhat = tensor.New(x.Shape...)
	b.invStd = make([]float64, c)

	for ch := 0; ch < c; ch++ {
		var mean, vr float64
		if train {
			for img := 0; img < n; img++ {
				base := (img*c + ch) * hw
				for j := 0; j < hw; j++ {
					mean += float64(x.Data[base+j])
				}
			}
			mean /= cnt
			for img := 0; img < n; img++ {
				base := (img*c + ch) * hw
				for j := 0; j < hw; j++ {
					d := float64(x.Data[base+j]) - mean
					vr += d * d
				}
			}
			vr /= cnt
			m := b.Momentum
			b.RunningMean.Data[ch] = float32((1-m)*float64(b.RunningMean.Data[ch]) + m*mean)
			b.RunningVar.Data[ch] = float32((1-m)*float64(b.RunningVar.Data[ch]) + m*vr)
		} else {
			mean = float64(b.RunningMean.Data[ch])
			vr = float64(b.RunningVar.Data[ch])
		}
		inv := 1 / math.Sqrt(vr+b.Eps)
		b.invStd[ch] = inv
		g := float64(b.Gamma.Value.Data[ch])
		bt := float64(b.Beta.Value.Data[ch])
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				xh := (float64(x.Data[base+j]) - mean) * inv
				b.xhat.Data[base+j] = float32(xh)
				out.Data[base+j] = float32(g*xh + bt)
			}
		}
	}
	return out
}

// forwardSync is the training forward in sync-BN mode: a two-phase
// cross-shard moment all-reduce through the attached BNSyncer. Phase
// one publishes the local per-channel sums; the syncer hands back the
// sums folded over all participants in ascending participant order, so
// all replicas derive the identical full-batch mean. Phase two does
// the same for the squared deviations about that global mean,
// reproducing the legacy two-pass variance. Running statistics update
// with the global moments on every replica, keeping the replicas'
// state identical without a broadcast. With one participant the math
// degenerates to the legacy path exactly.
func (b *frozenBatchNorm2D) forwardSync(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	hw := h * w
	b.inShape = append(b.inShape[:0], x.Shape...)
	b.syncActive = true

	out := tensor.New(x.Shape...)
	b.xhat = tensor.New(x.Shape...)
	b.invStd = make([]float64, c)
	if cap(b.meanBuf) < c {
		b.meanBuf = make([]float64, c)
	}
	if cap(b.sumBuf) < c {
		b.sumBuf = make([]float64, c)
	}
	mean := b.meanBuf[:c]
	local := b.sumBuf[:c]

	for ch := 0; ch < c; ch++ {
		var s float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				s += float64(x.Data[base+j])
			}
		}
		local[ch] = s
	}
	moments := b.sync.Reduce(b.syncIdx, append(local[:c:c], float64(n*hw)))
	gsum, totalCnt := moments[:c], int(moments[c])

	cnt := float64(totalCnt)
	b.syncCnt = cnt
	for ch := 0; ch < c; ch++ {
		mean[ch] = gsum[ch] / cnt
	}

	for ch := 0; ch < c; ch++ {
		var s float64
		m := mean[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				d := float64(x.Data[base+j]) - m
				s += d * d
			}
		}
		local[ch] = s
	}
	gsq := b.sync.Reduce(b.syncIdx, local)

	for ch := 0; ch < c; ch++ {
		vr := gsq[ch] / cnt
		m := b.Momentum
		b.RunningMean.Data[ch] = float32((1-m)*float64(b.RunningMean.Data[ch]) + m*mean[ch])
		b.RunningVar.Data[ch] = float32((1-m)*float64(b.RunningVar.Data[ch]) + m*vr)
		inv := 1 / math.Sqrt(vr+b.Eps)
		b.invStd[ch] = inv
		ga := float64(b.Gamma.Value.Data[ch])
		bt := float64(b.Beta.Value.Data[ch])
		mch := mean[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				xh := (float64(x.Data[base+j]) - mch) * inv
				b.xhat.Data[base+j] = float32(xh)
				out.Data[base+j] = float32(ga*xh + bt)
			}
		}
	}
	return out
}

// Backward implements Layer. It uses the full batch-statistics
// gradient (the training-mode formula).
func (b *frozenBatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if b.syncActive {
		return b.backwardSync(dy)
	}
	n, c := b.inShape[0], b.inShape[1]
	hw := b.inShape[2] * b.inShape[3]
	cnt := float64(n * hw)
	dx := tensor.New(b.inShape...)

	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				g := float64(dy.Data[base+j])
				sumDy += g
				sumDyXhat += g * float64(b.xhat.Data[base+j])
			}
		}
		b.Beta.Grad.Data[ch] += float32(sumDy)
		b.Gamma.Grad.Data[ch] += float32(sumDyXhat)

		gamma := float64(b.Gamma.Value.Data[ch])
		inv := b.invStd[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				g := float64(dy.Data[base+j])
				xh := float64(b.xhat.Data[base+j])
				dx.Data[base+j] = float32(gamma * inv / cnt * (cnt*g - sumDy - xh*sumDyXhat))
			}
		}
	}
	return dx
}

// backwardSync is Backward in sync-BN mode: the per-channel gradient
// sums are all-reduced across the group so dx uses the full-batch
// sums and count (the same formula the legacy path applies to a whole
// batch). Beta/Gamma accumulate only the LOCAL sums — the sharded
// trainer's generic cross-shard gradient reduction adds the shards'
// parameter gradients together, which completes those sums globally.
func (b *frozenBatchNorm2D) backwardSync(dy *tensor.Tensor) *tensor.Tensor {
	n, c := b.inShape[0], b.inShape[1]
	hw := b.inShape[2] * b.inShape[3]
	dx := tensor.New(b.inShape...)

	if cap(b.dyBuf) < c {
		b.dyBuf = make([]float64, c)
		b.dyxBuf = make([]float64, c)
	}
	ldy := b.dyBuf[:c]
	ldyx := b.dyxBuf[:c]
	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				gv := float64(dy.Data[base+j])
				sumDy += gv
				sumDyXhat += gv * float64(b.xhat.Data[base+j])
			}
		}
		ldy[ch] = sumDy
		ldyx[ch] = sumDyXhat
	}
	grads := b.sync.Reduce(b.syncIdx, append(ldy[:c:c], ldyx...))
	gdy, gdyx := grads[:c], grads[c:]

	cnt := b.syncCnt
	for ch := 0; ch < c; ch++ {
		b.Beta.Grad.Data[ch] += float32(ldy[ch])
		b.Gamma.Grad.Data[ch] += float32(ldyx[ch])
		sumDy, sumDyXhat := gdy[ch], gdyx[ch]
		gamma := float64(b.Gamma.Value.Data[ch])
		inv := b.invStd[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * hw
			for j := 0; j < hw; j++ {
				gv := float64(dy.Data[base+j])
				xh := float64(b.xhat.Data[base+j])
				dx.Data[base+j] = float32(gamma * inv / cnt * (cnt*gv - sumDy - xh*sumDyXhat))
			}
		}
	}
	return dx
}

// Infer implements Inferer.
func (r *frozenResidual) Infer(x *tensor.Tensor) *tensor.Tensor {
	m := Infer(r.Main, x)
	s := Infer(r.Shortcut, x)
	out := m.Clone()
	out.Add(s)
	return out
}

// Infer implements Inferer: the rectification without the sign mask.
func (r *frozenReLU) Infer(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Infer implements Inferer: max pooling without the argmax map.
func (p *frozenMaxPool2D) Infer(x *tensor.Tensor) *tensor.Tensor {
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
func (b *frozenBatchNorm2D) Infer(x *tensor.Tensor) *tensor.Tensor {
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

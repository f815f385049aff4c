// Package data supplies the image-classification datasets for the
// retraining experiments. The paper uses CIFAR-10/CIFAR-100; those
// archives are not available offline, so this package generates
// deterministic synthetic stand-ins with the same tensor layout
// (3-channel square images, 10 or 100 classes): class-conditional
// procedural textures — mixtures of class-specific sinusoids and
// Gaussian blobs — with per-sample noise, shifts, and flips. The
// resulting task is learnable but not trivial, which is what the
// STE-vs-difference-gradient comparisons require (see DESIGN.md).
package data

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/appmult/retrain/internal/tensor"
)

// Dataset is a labeled image set in NCHW float32 form, values roughly
// in [-1, 1].
type Dataset struct {
	// X is (N, 3, HW, HW).
	X *tensor.Tensor
	// Y holds one class label per image.
	Y []int
	// Classes is the label-space size.
	Classes int
}

// Len returns the number of images.
func (d *Dataset) Len() int { return len(d.Y) }

// Image returns a view of image i as a (1, 3, HW, HW) tensor copy.
func (d *Dataset) Image(i int) *tensor.Tensor {
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	img := tensor.New(1, c, h, w)
	copy(img.Data, d.X.Data[i*c*h*w:(i+1)*c*h*w])
	return img
}

// SynthConfig parameterizes the synthetic generator.
type SynthConfig struct {
	// Classes is 10 (CIFAR-10 stand-in) or 100 (CIFAR-100 stand-in);
	// any positive value works.
	Classes int
	// Train and Test are the split sizes.
	Train, Test int
	// HW is the image resolution (32 at paper scale).
	HW int
	// Seed drives the whole generation deterministically.
	Seed int64
	// Noise is the per-pixel noise standard deviation (default 0.25).
	Noise float64
}

type classProto struct {
	// Per channel: three sinusoid components (fx, fy, phase, amp).
	waves [3][3][4]float64
	// One Gaussian blob per channel: (cx, cy, sigma, amp).
	blobs [3][4]float64
	// Channel offsets.
	bias [3]float64
}

func newProto(rng *rand.Rand) classProto {
	var p classProto
	for c := 0; c < 3; c++ {
		for k := 0; k < 3; k++ {
			p.waves[c][k] = [4]float64{
				float64(1 + rng.Intn(4)),
				float64(1 + rng.Intn(4)),
				rng.Float64() * 2 * math.Pi,
				0.25 + 0.35*rng.Float64(),
			}
		}
		p.blobs[c] = [4]float64{
			0.2 + 0.6*rng.Float64(),
			0.2 + 0.6*rng.Float64(),
			0.1 + 0.2*rng.Float64(),
			0.4 + 0.6*rng.Float64(),
		}
		p.bias[c] = 0.4 * (rng.Float64() - 0.5)
	}
	return p
}

func (p classProto) at(c int, y, x, hw float64) float64 {
	v := p.bias[c]
	for _, w := range p.waves[c] {
		v += w[3] * math.Sin(2*math.Pi*(w[0]*x+w[1]*y)/hw+w[2])
	}
	b := p.blobs[c]
	dx := x/hw - b[0]
	dy := y/hw - b[1]
	v += b[3] * math.Exp(-(dx*dx+dy*dy)/(2*b[2]*b[2]))
	return v
}

// Synthetic generates a train/test pair. Both splits draw from the
// same class prototypes; samples differ by noise, circular shifts of
// up to 2 pixels, and horizontal flips.
func Synthetic(cfg SynthConfig) (train, test *Dataset) {
	if cfg.Classes < 2 || cfg.Train < 1 || cfg.Test < 1 || cfg.HW < 4 {
		panic(fmt.Sprintf("data: invalid synthetic config %+v", cfg))
	}
	noise := cfg.Noise
	if noise == 0 {
		noise = 0.25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := make([]classProto, cfg.Classes)
	for i := range protos {
		protos[i] = newProto(rng)
	}
	// A class's prototype value at (c, y, x) is the same for every one
	// of its samples, so each used class's three planes are evaluated
	// once, up front; the sample loop reads back the very float64 an
	// inline p.at call would compute.
	hw := cfg.HW
	fhw := float64(hw)
	plane := 3 * hw * hw
	used := min(cfg.Classes, max(cfg.Train, cfg.Test)) // labels are i % Classes
	planes := make([]float64, used*plane)
	for k := 0; k < used; k++ {
		for c := 0; c < 3; c++ {
			for y := 0; y < hw; y++ {
				for x := 0; x < hw; x++ {
					planes[k*plane+(c*hw+y)*hw+x] = protos[k].at(c, float64(y), float64(x), fhw)
				}
			}
		}
	}
	gen := func(n int, r *rand.Rand) *Dataset {
		ds := &Dataset{X: tensor.New(n, 3, cfg.HW, cfg.HW), Y: make([]int, n), Classes: cfg.Classes}
		for i := 0; i < n; i++ {
			label := i % cfg.Classes // balanced classes
			ds.Y[i] = label
			p := planes[label*plane : (label+1)*plane]
			shiftX := r.Intn(5) - 2
			shiftY := r.Intn(5) - 2
			flip := r.Intn(2) == 1
			amp := 0.85 + 0.3*r.Float64()
			base := i * 3 * hw * hw
			for c := 0; c < 3; c++ {
				for y := 0; y < hw; y++ {
					for x := 0; x < hw; x++ {
						sx := x
						if flip {
							sx = hw - 1 - x
						}
						px := (sx + shiftX + hw) % hw
						py := (y + shiftY + hw) % hw
						v := amp*p[(c*hw+py)*hw+px] + noise*r.NormFloat64()
						if v > 1.5 {
							v = 1.5
						}
						if v < -1.5 {
							v = -1.5
						}
						ds.X.Data[base+c*hw*hw+y*hw+x] = float32(v)
					}
				}
			}
		}
		return ds
	}
	train = gen(cfg.Train, rand.New(rand.NewSource(cfg.Seed+1)))
	test = gen(cfg.Test, rand.New(rand.NewSource(cfg.Seed+2)))
	return train, test
}

// Batch is one minibatch.
type Batch struct {
	X *tensor.Tensor // (B, 3, HW, HW)
	Y []int
}

// Batches splits the dataset into minibatches, shuffling with the given
// seed (shuffle is skipped when seed is 0). The final short batch is
// included. Every batch owns fresh tensors; the training loop itself
// uses the allocation-free Iter instead, and Batches remains as the
// convenient copying form (the batch order and contents are identical).
func (d *Dataset) Batches(batchSize int, seed int64) []Batch {
	it := d.Iter(batchSize)
	it.Reset(seed)
	var out []Batch
	for it.Next() {
		b := it.Batch()
		out = append(out, Batch{X: b.X.Clone(), Y: append([]int(nil), b.Y...)})
	}
	return out
}

// BatchIter walks a dataset in minibatches without allocating per
// batch: the gathered images land in one reused buffer tensor, and the
// label slice is likewise reused. The Batch returned by Batch is
// therefore only valid until the next call to Next or Reset — callers
// that need to keep a batch must clone it (as Batches does).
//
// Reset reshuffles (seed 0 keeps dataset order, matching Batches) and
// rewinds, so one iterator serves every epoch of a training run.
type BatchIter struct {
	ds        *Dataset
	batchSize int
	order     []int
	pos       int
	x         *tensor.Tensor
	y         []int
	cur       Batch
}

// Iter returns a reusable minibatch iterator over d, positioned before
// the first batch in dataset order. Call Reset to shuffle.
func (d *Dataset) Iter(batchSize int) *BatchIter {
	if batchSize < 1 {
		panic("data: batch size must be positive")
	}
	it := &BatchIter{ds: d, batchSize: batchSize, order: make([]int, d.Len())}
	for i := range it.order {
		it.order[i] = i
	}
	return it
}

// Reset rewinds the iterator and reshuffles with the given seed (seed 0
// restores dataset order). The shuffle matches Batches bit-for-bit.
func (it *BatchIter) Reset(seed int64) {
	it.pos = 0
	for i := range it.order {
		it.order[i] = i
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(it.order), func(i, j int) { it.order[i], it.order[j] = it.order[j], it.order[i] })
	}
}

// Next gathers the next minibatch into the iterator's reused buffers,
// reporting whether one was available. The final short batch is
// included.
func (it *BatchIter) Next() bool {
	n := it.ds.Len()
	if it.pos >= n {
		return false
	}
	lo := it.pos
	hi := lo + it.batchSize
	if hi > n {
		hi = n
	}
	it.pos = hi
	sh := it.ds.X.Shape
	chw := sh[1] * sh[2] * sh[3]
	it.x = tensor.Ensure(it.x, hi-lo, sh[1], sh[2], sh[3])
	if cap(it.y) < hi-lo {
		it.y = make([]int, it.batchSize)
	}
	it.y = it.y[:hi-lo]
	for i := lo; i < hi; i++ {
		src := it.order[i]
		copy(it.x.Data[(i-lo)*chw:(i-lo+1)*chw], it.ds.X.Data[src*chw:(src+1)*chw])
		it.y[i-lo] = it.ds.Y[src]
	}
	it.cur = Batch{X: it.x, Y: it.y}
	return true
}

// Batch returns the minibatch gathered by the last successful Next.
// The returned tensors are owned by the iterator and overwritten by the
// next Next/Reset.
func (it *BatchIter) Batch() Batch { return it.cur }

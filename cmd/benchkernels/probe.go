package main

import (
	"math/rand"

	"github.com/appmult/retrain/internal/tensor"
)

// The gather probe is the denominator of the backward sweep rows: how
// fast this host issues 8-lane VGATHERDPS when nothing else limits them.
// A group is four independent gathers — own destination and mask
// register each, destination zeroed first, as in gemm_bwd_amd64.s — of
// 32 hoisted random operand levels off one random row of a table with
// the padded gradient table's geometry (128 rows of 128 entries at a
// stride of 256 floats: 64 KiB touched), summed into four accumulators.
// That is the dX gather sweep's inner loop without its arithmetic and
// its gsT loads. One op is probePasses passes over probeGroups groups —
// a vgg11 sweep's worth of elements — scheduled on the worker pool like
// the sweeps' column blocks, so a sweep row's ns per gathered element
// over the probe's is a ratio of like with like on any core count.
type gatherProbe struct {
	table []float32
	idx   [32]int32
	woff  []int32 // per group: the row's offset into table, in floats
	sink  []float32
}

const (
	probeRows, probeStride   = 128, 256
	probeGroups, probePasses = 512, 256
)

func newGatherProbe(rng *rand.Rand) *gatherProbe {
	p := &gatherProbe{table: make([]float32, probeRows*probeStride),
		woff: make([]int32, probeGroups), sink: make([]float32, probePasses)}
	for i := range p.table {
		p.table[i] = float32(rng.NormFloat64())
	}
	for i := range p.idx {
		p.idx[i] = int32(rng.Intn(probeRows))
	}
	for i := range p.woff {
		p.woff[i] = int32(rng.Intn(probeRows)) * probeStride
	}
	return p
}

// elems is the number of table entries one run gathers.
func (p *gatherProbe) elems() int { return probePasses * len(p.woff) * len(p.idx) }

func (p *gatherProbe) run() { tensor.ParallelRowsOn(probePasses, p) }

// RunRange makes the passes [lo, hi) and keeps the sums alive in the
// range's own sink slot.
func (p *gatherProbe) RunRange(lo, hi int) {
	var sum [8]float32
	for pass := lo; pass < hi; pass++ {
		gatherGroups(&sum, p.table, &p.idx, p.woff)
	}
	p.sink[lo] = sum[0]
}

// gatherGroupsGo is the portable stand-in: the same loads, scalar.
func gatherGroupsGo(sum *[8]float32, table []float32, idx *[32]int32, woff []int32) {
	for _, w := range woff {
		row := table[w : w+probeStride]
		for l, i := range idx {
			sum[l&7] += row[i]
		}
	}
}

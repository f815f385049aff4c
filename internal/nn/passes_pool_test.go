package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/tensor"
)

// TestPooledPassesMatchInline runs the BatchNorm (alone, over two
// slices and in a sync-BN pair), ReLU and max-pool passes over a batch
// above pooledElems twice — forced inline, then on the worker pool in
// shares — and requires every output, input gradient, parameter
// gradient and running statistic to match bit for bit: the passes are
// cut per channel or per image, never inside a sum.
func TestPooledPassesMatchInline(t *testing.T) {
	const n, c, hw = 8, 6, 28 // 37,632 elements per pass
	if n*c*hw*hw <= pooledElems {
		t.Fatal("the batch no longer reaches the pooled path")
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(n, c, hw, hw)
	x.RandNormal(rng, 1)
	dy := tensor.New(n, c, hw, hw)
	dy.RandNormal(rng, 1)

	// Each case returns everything its layers computed, flattened.
	cases := map[string]func() []float32{
		"batchnorm": func() []float32 {
			bn := NewBatchNorm2D("bn", c)
			out := bn.Forward(x, true).Clone()
			dx := bn.Backward(dy)
			return joined(out, dx, bn.Gamma.Grad, bn.Beta.Grad, bn.RunningMean, bn.RunningVar)
		},
		"syncbn": func() []float32 {
			g := NewBNSyncGroup(c)
			g.Configure(2)
			bns := []*BatchNorm2D{NewBatchNorm2D("bn", c), NewBatchNorm2D("bn", c)}
			res := make([][]float32, 2)
			var wg sync.WaitGroup
			for i, bn := range bns {
				bn.SetSyncGroup(g)
				grads := sliceBN(bn, i, 0, n)
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Two copies of the batch: each half stays above pooledElems.
					out := bn.Forward(x, true).Clone()
					dx := bn.Backward(dy)
					res[i] = append(joined(out, dx, bn.RunningMean, bn.RunningVar), grads[0]...)
				}()
			}
			wg.Wait()
			return append(res[0], res[1]...)
		},
		"slicedbn": func() []float32 {
			bn := NewBatchNorm2D("bn", c)
			grads := sliceBN(bn, 0, 0, 3, 8)
			out := bn.Forward(x, true).Clone()
			dx := bn.Backward(dy)
			SetSlices(bn.Params(), nil, 0, nil)
			return append(append(joined(out, dx, bn.RunningMean, bn.RunningVar), grads[0]...), grads[1]...)
		},
		"relu": func() []float32 {
			r := NewReLU()
			out := r.Forward(x, true).Clone()
			return joined(out, r.Backward(dy))
		},
		"maxpool2x2": func() []float32 {
			p := NewMaxPool2D(2, 2)
			out := p.Forward(x, true)
			g := tensor.New(out.Shape...)
			g.RandNormal(rand.New(rand.NewSource(6)), 1)
			out = out.Clone()
			return joined(out, p.Backward(g))
		},
		"maxpool3x2": func() []float32 { // overlapping windows: an input sums several gradients
			p := NewMaxPool2D(3, 2)
			out := p.Forward(x, true)
			g := tensor.New(out.Shape...)
			g.RandNormal(rand.New(rand.NewSource(7)), 1)
			out = out.Clone()
			return joined(out, p.Backward(g))
		},
	}
	for name, run := range cases {
		saved := pooledElems
		pooledElems = math.MaxInt
		want := run()
		pooledElems = saved
		before := poolJobs()
		got := run()
		if poolJobs() == before {
			t.Errorf("%s: no pooled job ran", name)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: value %d is %g on the pool, %g inline", name, i, got[i], want[i])
			}
		}
	}
}

// joined concatenates the tensors' data.
func joined(ts ...*tensor.Tensor) []float32 {
	var out []float32
	for _, t := range ts {
		out = append(out, t.Data...)
	}
	return out
}

// poolJobs reads how many jobs the worker pool has fanned out so far.
func poolJobs() float64 {
	v, _ := obs.Default().ReadValue("tensor_pool_jobs_total", "mode", "pooled")
	return v
}

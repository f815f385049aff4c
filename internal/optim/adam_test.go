package optim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// adamStepRef is Adam.Step as the scalar loop it was before the AVX2
// kernel, the oracle of TestAdamMatchesScalarLoop. Its products are
// rounded explicitly (float64(…)) so it means the same on every
// architecture; on amd64 that is the loop bit for bit.
func adamStepRef(a *Adam, params []*nn.Param, lr float64) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, p.Value.Numel())
			v = make([]float64, p.Value.Numel())
			a.m[p] = m
			a.v[p] = v
		}
		for i := range m {
			g := float64(p.Grad.Data[i])
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64(float64((1-a.Beta2)*g)*g)
			mhat := m[i] / c1
			vhat := v[i] / c2
			p.Value.Data[i] -= float32(lr * mhat / (math.Sqrt(vhat) + a.Eps))
		}
		p.Touch()
	}
}

// TestAdamMatchesScalarLoop steps Adam and adamStepRef side by side on
// two copies of parameters of every length 0-9 and one of 1,001
// elements (whole 4-lane blocks and every tail), over gradients laced
// with ±0, subnormals and ±1e30, through a learning-rate change and a
// Snapshot/Restore in mid-run, and requires the moments and the weights
// to agree bit for bit after every step. Under -tags purego it checks
// the Go twin alone.
func TestAdamMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001}
	ps, qs := make([]*nn.Param, len(lens)), make([]*nn.Param, len(lens))
	for i, n := range lens {
		val := make([]float32, n)
		for j := range val {
			val[j] = float32(rng.NormFloat64())
		}
		for _, side := range []*[]*nn.Param{&ps, &qs} {
			(*side)[i] = &nn.Param{Name: "p",
				Value: &tensor.Tensor{Shape: []int{n}, Data: append([]float32(nil), val...)},
				Grad:  &tensor.Tensor{Shape: []int{n}, Data: make([]float32, n)}}
		}
	}
	special := []float32{0, float32(math.Copysign(0, -1)), 1e-40, -1e-40, 1e30, -1e30}
	opt, ref := NewAdam(), NewAdam()
	var snap, refSnap AdamState
	for step := 1; step <= 100; step++ {
		for i, p := range ps {
			for j := range p.Grad.Data {
				g := float32(rng.NormFloat64())
				if rng.Intn(4) == 0 {
					g = special[rng.Intn(len(special))]
				}
				p.Grad.Data[j], qs[i].Grad.Data[j] = g, g
			}
		}
		lr := 1e-3
		if step > 60 {
			lr = 5e-4
		}
		opt.Step(ps, lr)
		adamStepRef(ref, qs, lr)
		switch step {
		case 30:
			snap, refSnap = opt.Snapshot(ps), ref.Snapshot(qs)
		case 45:
			opt.Restore(ps, snap)
			ref.Restore(qs, refSnap)
		}
		for i, p := range ps {
			q := qs[i]
			for j := range p.Value.Data {
				if math.Float32bits(p.Value.Data[j]) != math.Float32bits(q.Value.Data[j]) {
					t.Fatalf("step %d, length %d, element %d: value %v, scalar loop %v", step, lens[i], j, p.Value.Data[j], q.Value.Data[j])
				}
				if math.Float64bits(opt.m[p][j]) != math.Float64bits(ref.m[q][j]) ||
					math.Float64bits(opt.v[p][j]) != math.Float64bits(ref.v[q][j]) {
					t.Fatalf("step %d, length %d, element %d: moments (%v, %v), scalar loop (%v, %v)",
						step, lens[i], j, opt.m[p][j], opt.v[p][j], ref.m[q][j], ref.v[q][j])
				}
			}
		}
	}
}

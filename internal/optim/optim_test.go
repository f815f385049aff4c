package optim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tensor"
)

// quadratic builds a single-parameter model whose loss is
// 0.5*sum((v - target)^2); its gradient is (v - target).
func quadratic(n int, seed int64) (*nn.Param, []float32) {
	rng := rand.New(rand.NewSource(seed))
	p := &nn.Param{Name: "p", Value: tensor.New(n), Grad: tensor.New(n)}
	target := make([]float32, n)
	for i := range target {
		target[i] = float32(rng.NormFloat64())
		p.Value.Data[i] = float32(rng.NormFloat64()) * 3
	}
	return p, target
}

func lossAndGrad(p *nn.Param, target []float32) float64 {
	var loss float64
	for i := range target {
		d := p.Value.Data[i] - target[i]
		p.Grad.Data[i] = d
		loss += 0.5 * float64(d) * float64(d)
	}
	return loss
}

func converges(t *testing.T, opt *Adam, lr float64, steps int) {
	t.Helper()
	p, target := quadratic(16, 99)
	start := lossAndGrad(p, target)
	for i := 0; i < steps; i++ {
		lossAndGrad(p, target)
		opt.Step([]*nn.Param{p}, lr)
	}
	end := lossAndGrad(p, target)
	if end > start/100 {
		t.Errorf("did not converge: %v -> %v", start, end)
	}
}

func TestAdamConverges(t *testing.T) { converges(t, NewAdam(), 0.05, 400) }

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// Adam's bias correction makes the first update ~lr * sign(grad).
	p := &nn.Param{Name: "p", Value: tensor.FromData([]float32{0}, 1), Grad: tensor.FromData([]float32{3}, 1)}
	NewAdam().Step([]*nn.Param{p}, 0.01)
	if math.Abs(float64(p.Value.Data[0])+0.01) > 1e-4 {
		t.Errorf("first Adam step = %v, want ~-0.01", p.Value.Data[0])
	}
}

func TestAdamStateIsPerParam(t *testing.T) {
	a := NewAdam()
	p1 := &nn.Param{Name: "a", Value: tensor.New(1), Grad: tensor.FromData([]float32{1}, 1)}
	p2 := &nn.Param{Name: "b", Value: tensor.New(1), Grad: tensor.FromData([]float32{-1}, 1)}
	a.Step([]*nn.Param{p1, p2}, 0.01)
	if p1.Value.Data[0] >= 0 || p2.Value.Data[0] <= 0 {
		t.Errorf("updates misrouted: %v %v", p1.Value.Data[0], p2.Value.Data[0])
	}
}

func TestPaperSchedule(t *testing.T) {
	s := PaperSchedule(30)
	cases := map[int]float64{1: 1e-3, 10: 1e-3, 11: 5e-4, 20: 5e-4, 21: 2.5e-4, 30: 2.5e-4, 35: 2.5e-4}
	for epoch, want := range cases {
		if got := s.At(epoch); got != want {
			t.Errorf("epoch %d: lr %v, want %v", epoch, got, want)
		}
	}
}

func TestPaperScheduleScaled(t *testing.T) {
	s := PaperSchedule(6)
	if s.At(1) != 1e-3 || s.At(3) != 5e-4 || s.At(6) != 2.5e-4 {
		t.Errorf("scaled schedule wrong: %v %v %v", s.At(1), s.At(3), s.At(6))
	}
}

func TestEmptySchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty schedule did not panic")
		}
	}()
	Schedule{}.At(1)
}

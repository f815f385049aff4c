// Package optim provides the optimizers and learning-rate schedule the
// paper's retraining setup uses: Adam with a three-stage step schedule
// (1e-3 for epochs 1-10, 5e-4 for 11-20, 2.5e-4 for 21-30).
package optim

import (
	"math"

	"github.com/appmult/retrain/internal/nn"
)

// Adam is the Adam optimizer [Kingma & Ba, ICLR 2015] with the standard
// bias-corrected moment estimates.
type Adam struct {
	Beta1, Beta2, Eps float64
	step              int
	m, v              map[*nn.Param][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults
// (beta1 0.9, beta2 0.999, eps 1e-8).
func NewAdam() *Adam {
	return &Adam{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param][]float64),
		v: make(map[*nn.Param][]float64),
	}
}

// Step applies one update at the given learning rate and clears
// nothing: callers zero gradients themselves (nn.ZeroGrads).
func (a *Adam) Step(params []*nn.Param, lr float64) {
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
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / c1
			vhat := v[i] / c2
			p.Value.Data[i] -= float32(lr * mhat / (math.Sqrt(vhat) + a.Eps))
		}
		p.Touch()
	}
}

// AdamState is a deep-copied snapshot of an Adam optimizer's state for
// a fixed parameter list: the bias-correction step count and the
// first/second moment vectors in parameter order. It exists so the
// train package can checkpoint and roll back mid-run without reaching
// into the optimizer's internals.
type AdamState struct {
	Step int
	M, V [][]float64
}

// Snapshot captures the state for params, in order. Parameters the
// optimizer has not stepped yet snapshot as zero moments.
func (a *Adam) Snapshot(params []*nn.Param) AdamState {
	st := AdamState{Step: a.step, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		st.M[i] = append([]float64(nil), a.m[p]...)
		st.V[i] = append([]float64(nil), a.v[p]...)
		if st.M[i] == nil {
			st.M[i] = make([]float64, p.Value.Numel())
			st.V[i] = make([]float64, p.Value.Numel())
		}
	}
	return st
}

// Restore overwrites the state for params from a snapshot taken with
// the same parameter list (Snapshot's inverse; the snapshot is copied,
// not aliased).
func (a *Adam) Restore(params []*nn.Param, st AdamState) {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		panic("optim: AdamState does not match parameter list")
	}
	a.step = st.Step
	for i, p := range params {
		if len(st.M[i]) != p.Value.Numel() || len(st.V[i]) != p.Value.Numel() {
			panic("optim: AdamState moment size does not match parameter")
		}
		a.m[p] = append([]float64(nil), st.M[i]...)
		a.v[p] = append([]float64(nil), st.V[i]...)
	}
}

// Stage is one constant-rate segment of a step schedule.
type Stage struct {
	// UntilEpoch is the last epoch (1-based, inclusive) at this rate.
	UntilEpoch int
	// LR is the learning rate for the segment.
	LR float64
}

// Schedule is a piecewise-constant learning-rate schedule.
type Schedule []Stage

// PaperSchedule returns the paper's retraining schedule scaled to an
// arbitrary epoch budget: the first third at 1e-3, the second at 5e-4,
// the rest at 2.5e-4. With epochs=30 it reproduces the paper exactly.
func PaperSchedule(epochs int) Schedule {
	third := (epochs + 2) / 3
	return Schedule{
		{UntilEpoch: third, LR: 1e-3},
		{UntilEpoch: 2 * third, LR: 5e-4},
		{UntilEpoch: epochs, LR: 2.5e-4},
	}
}

// At returns the learning rate for a 1-based epoch; epochs past the
// last stage keep its rate.
func (s Schedule) At(epoch int) float64 {
	for _, st := range s {
		if epoch <= st.UntilEpoch {
			return st.LR
		}
	}
	if len(s) == 0 {
		panic("optim: empty schedule")
	}
	return s[len(s)-1].LR
}

package nn

import "fmt"

// Stateful is implemented by layers carrying non-parameter state that
// evolves during training and must survive a checkpoint/resume cycle:
// BatchNorm running statistics and the activation-range observers of
// the approximate layers. Parameters (Params) deliberately exclude
// these buffers — the optimizer must not touch them — so checkpoints
// capture them through this interface instead.
type Stateful interface {
	// StateVec returns a copy of the layer's non-parameter state.
	StateVec() []float32
	// SetStateVec restores state captured by StateVec, rejecting
	// vectors of the wrong length.
	SetStateVec([]float32) error
}

// VisitLayers calls fn on l and every nested layer, depth-first in
// construction order. The order is deterministic, which is what lets
// CollectState and RestoreState match state vectors by position.
func VisitLayers(l Layer, fn func(Layer)) {
	fn(l)
	switch t := l.(type) {
	case *Sequential:
		for _, inner := range t.Layers {
			VisitLayers(inner, fn)
		}
	case *Residual:
		VisitLayers(t.Main, fn)
		VisitLayers(t.Shortcut, fn)
	}
}

// CollectState gathers the state vectors of every Stateful layer in
// visit order.
func CollectState(l Layer) [][]float32 {
	var out [][]float32
	VisitLayers(l, func(inner Layer) {
		if s, ok := inner.(Stateful); ok {
			out = append(out, s.StateVec())
		}
	})
	return out
}

// RestoreState writes state collected by CollectState back into a
// model with the same layer structure.
func RestoreState(l Layer, state [][]float32) error {
	i := 0
	var err error
	VisitLayers(l, func(inner Layer) {
		s, ok := inner.(Stateful)
		if !ok || err != nil {
			return
		}
		if i >= len(state) {
			err = fmt.Errorf("nn: state has %d vectors, model needs more", len(state))
			return
		}
		if e := s.SetStateVec(state[i]); e != nil {
			err = fmt.Errorf("nn: state vector %d: %w", i, e)
			return
		}
		i++
	})
	if err != nil {
		return err
	}
	if i != len(state) {
		return fmt.Errorf("nn: state has %d vectors, model consumed %d", len(state), i)
	}
	return nil
}

// StateVec implements Stateful: the running mean then running
// variance, per channel.
func (b *BatchNorm2D) StateVec() []float32 {
	out := make([]float32, 0, 2*b.C)
	out = append(out, b.RunningMean.Data...)
	return append(out, b.RunningVar.Data...)
}

// SetStateVec implements Stateful.
func (b *BatchNorm2D) SetStateVec(s []float32) error {
	if len(s) != 2*b.C {
		return fmt.Errorf("nn: %s state has %d values, want %d", b.name, len(s), 2*b.C)
	}
	copy(b.RunningMean.Data, s[:b.C])
	copy(b.RunningVar.Data, s[b.C:])
	return nil
}

// StateVec implements Stateful: the activation observer's state.
func (c *ApproxConv2D) StateVec() []float32 { return c.Observer.StateVec() }

// SetStateVec implements Stateful.
func (c *ApproxConv2D) SetStateVec(s []float32) error { return c.Observer.SetStateVec(s) }

// StateVec implements Stateful: the activation observer's state.
func (l *ApproxLinear) StateVec() []float32 { return l.conv.StateVec() }

// SetStateVec implements Stateful.
func (l *ApproxLinear) SetStateVec(s []float32) error { return l.conv.SetStateVec(s) }

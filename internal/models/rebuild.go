package models

import (
	"fmt"
	"math/rand"

	"github.com/appmult/retrain/internal/nn"
)

// Clone returns a deep structural copy of model suitable for use as a
// data-parallel training replica: every layer is rebuilt with its own
// parameter tensors, scratch buffers, and caches, while preserving the
// layer's configuration exactly — each approximate layer keeps its own
// multiplier/gradient Op (unlike Approximate, which rewrites the whole
// model onto a single op) and its observer state; BatchNorm layers keep
// their running statistics.
//
// The clone and the original share only immutable configuration (the
// Op bundles and their LUTs); all mutable state is copied, so the two
// models can run forward/backward concurrently.
func Clone(model *nn.Sequential) *nn.Sequential {
	return rebuild(model, nil).(*nn.Sequential)
}

// Approximate returns a deep structural rewrite of model in which every
// float Conv2D is replaced by an ApproxConv2D sharing the same weights
// (copied, not aliased) and driven by op, and every layer that is
// already approximate is rebuilt onto op (an estimator swap across the
// whole model). All other layers are rebuilt with their parameters
// copied. It implements the paper's deployment step — "replace all
// accurate multipliers in convolutional layers with AppMults" — on an
// already-trained model, as an alternative to rebuilding via a
// ConvFactory and CopyParams.
//
// The returned model is independent of the original: retraining it
// does not disturb the source weights.
func Approximate(model *nn.Sequential, op *nn.Op) *nn.Sequential {
	return rebuild(model, op).(*nn.Sequential)
}

// rebuild is the one layer walk behind Clone and Approximate: a fresh
// layer of the same configuration with every parameter, running
// statistic and observer copied. A nil op keeps each approximate
// layer's own op and leaves float Conv2D float; a non-nil op drives
// every conv (float ones become approximate) and every approximate
// linear layer.
func rebuild(l nn.Layer, op *nn.Op) nn.Layer {
	// Constructors draw an init the copy below overwrites at once.
	rng := func() *rand.Rand { return rand.New(rand.NewSource(0)) }
	pick := func(own *nn.Op) *nn.Op {
		if op != nil {
			return op
		}
		return own
	}
	switch t := l.(type) {
	case *nn.Sequential:
		out := nn.NewSequential(t.Name())
		for _, inner := range t.Layers {
			out.Add(rebuild(inner, op))
		}
		return out
	case *nn.Residual:
		return nn.NewResidual(t.Name(), rebuild(t.Main, op), rebuild(t.Shortcut, op))
	case *nn.Conv2D:
		var c nn.Layer
		if op == nil {
			c = nn.NewConv2D(t.Name(), t.InC, t.OutC, t.K, t.Stride, t.Pad, rng())
		} else {
			c = nn.NewApproxConv2D(t.Name(), t.InC, t.OutC, t.K, t.Stride, t.Pad, op, rng())
		}
		nn.CopyParams(c, t)
		return c
	case *nn.ApproxConv2D:
		ac := nn.NewApproxConv2D(t.Name(), t.InC, t.OutC, t.K, t.Stride, t.Pad, pick(t.Op()), rng())
		// Carry the activation-range calibration across: dropping it
		// forces the rebuilt layer to re-observe from scratch and, in
		// eval-only use, to quantize with a single batch's range.
		ac.Observer = t.Observer
		nn.CopyParams(ac, t)
		return ac
	case *nn.ApproxLinear:
		al := nn.NewApproxLinear(t.Name(), t.In, t.Out, pick(t.Op()), rng())
		*al.ActivationObserver() = *t.ActivationObserver()
		nn.CopyParams(al, t)
		return al
	case *nn.Linear:
		ln := nn.NewLinear(t.Name(), t.In, t.Out, rng())
		nn.CopyParams(ln, t)
		return ln
	case *nn.BatchNorm2D:
		bn := nn.NewBatchNorm2D(t.Name(), t.C)
		bn.Eps, bn.Momentum = t.Eps, t.Momentum
		nn.CopyParams(bn, t)
		copy(bn.RunningMean.Data, t.RunningMean.Data)
		copy(bn.RunningVar.Data, t.RunningVar.Data)
		return bn
	case *nn.ReLU:
		return nn.NewReLU()
	case *nn.Flatten:
		return nn.NewFlatten()
	case *nn.MaxPool2D:
		return nn.NewMaxPool2D(t.K, t.Stride)
	case *nn.GlobalAvgPool:
		return nn.NewGlobalAvgPool()
	case nn.Identity:
		return nn.Identity{}
	default:
		// Even parameterless unknown layers cache activations between
		// Forward and Backward, so sharing one across the copies — which
		// exist to run concurrently — would race. Unknown types must be
		// taught to rebuild.
		panic(fmt.Sprintf("models: cannot rebuild layer type %T (%s)", l, l.Name()))
	}
}

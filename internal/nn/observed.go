package nn

import (
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// ObservedLayer is implemented by the approximate layers whose
// activation quantization is calibrated by a quant.Observer
// (ApproxConv2D and ApproxLinear). The data-parallel sharded trainer
// uses it to switch replicas into deferred-observe mode and to merge
// the per-shard activation ranges after each step: quantization then
// always uses the pre-step observer state — identical on every replica
// — while the raw batch range is captured for an exact post-step merge
// (see train.ShardedStep).
type ObservedLayer interface {
	Layer
	// ActivationObserver returns the layer's activation-range observer.
	ActivationObserver() *quant.Observer
	// SetDeferObserve toggles deferred-observe mode. When on, training
	// forwards no longer fold the batch range into the observer;
	// instead the raw min/max is captured for DeferredRange and the
	// caller folds a merged range via Observer.ObserveRange.
	SetDeferObserve(on bool)
	// DeferredRange returns the raw input range captured by the most
	// recent training forward in deferred-observe mode. ok is false
	// when no training forward has run since SetDeferObserve(true).
	DeferredRange() (mn, mx float32, ok bool)
}

// observerLag is the shared deferred-observe state embedded in the
// approximate layers.
type observerLag struct {
	deferred       bool
	lagMin, lagMax float32
	lagSeen        bool
}

// capture records the batch range (training forwards only).
func (o *observerLag) capture(mn, mx float32) {
	o.lagMin, o.lagMax = mn, mx
	o.lagSeen = true
}

// ActivationObserver implements ObservedLayer.
func (c *ApproxConv2D) ActivationObserver() *quant.Observer { return &c.Observer }

// SetDeferObserve implements ObservedLayer.
func (c *ApproxConv2D) SetDeferObserve(on bool) {
	c.lag.deferred = on
	c.lag.lagSeen = false
}

// DeferredRange implements ObservedLayer.
func (c *ApproxConv2D) DeferredRange() (mn, mx float32, ok bool) {
	return c.lag.lagMin, c.lag.lagMax, c.lag.lagSeen
}

// ActivationObserver implements ObservedLayer: its conv's.
func (l *ApproxLinear) ActivationObserver() *quant.Observer { return l.conv.ActivationObserver() }

// SetDeferObserve implements ObservedLayer.
func (l *ApproxLinear) SetDeferObserve(on bool) { l.conv.SetDeferObserve(on) }

// DeferredRange implements ObservedLayer.
func (l *ApproxLinear) DeferredRange() (mn, mx float32, ok bool) { return l.conv.DeferredRange() }

// observe runs the layer-side half of the observer protocol for one
// forward pass over input x: the undeferred path (a layer driven
// directly, outside train.Replica) folds the range into obs
// immediately (training forwards, or the first evaluation forward of a
// never-calibrated layer); the deferred path only captures the raw
// range for the trainer to merge.
func (o *observerLag) observe(obs *quant.Observer, x *tensor.Tensor, train bool) {
	if o.deferred {
		if train {
			o.capture(tensor.MinMax(x.Data))
		}
		return
	}
	if train || !obs.Seen() {
		obs.Observe(x)
	}
}

package wire

import (
	"context"
	"math/rand"
	"time"
)

// Backoff computes capped exponential retry delays with jitter. It is
// stateless: Delay(attempt) is a pure function of the attempt number
// plus a caller-owned rng, so retry loops stay reproducible under a
// fixed seed and several loops can share one policy value. The worker
// dial loop and cmd/loadgen's transient-error retry share this policy.
type Backoff struct {
	// Base is the attempt-0 delay (default 50ms).
	Base time.Duration
	// Max caps the exponential growth (default 5s).
	Max time.Duration
	// Factor is the per-attempt multiplier (default 2).
	Factor float64
	// Jitter is the fraction of the delay randomized symmetrically:
	// delay*(1-Jitter) .. delay*(1+Jitter). Default 0.2; negative
	// disables jitter entirely.
	Jitter float64
}

// Delay returns the backoff for the given zero-based attempt. rng may
// be nil for deterministic, jitter-free delays.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	d := float64(base)
	for i := 0; i < attempt && d < float64(max); i++ {
		d *= factor
	}
	if d > float64(max) {
		d = float64(max)
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 && rng != nil {
		d *= 1 - jitter + 2*jitter*rng.Float64()
	}
	return time.Duration(d)
}

// Sleep blocks for Delay(attempt, rng) or until ctx is done, reporting
// whether the full delay elapsed.
func (b Backoff) Sleep(ctx context.Context, attempt int, rng *rand.Rand) bool {
	t := time.NewTimer(b.Delay(attempt, rng))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

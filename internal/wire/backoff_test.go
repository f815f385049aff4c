package wire

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for attempt, w := range want {
		if d := b.Delay(attempt, nil); d != w {
			t.Fatalf("attempt %d: delay %v, want %v", attempt, d, w)
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff // all zero: 50ms base, 5s cap, factor 2, jitter 0.2
	if d := b.Delay(0, nil); d != 50*time.Millisecond {
		t.Fatalf("attempt 0 default: %v", d)
	}
	if d := b.Delay(100, nil); d != 5*time.Second {
		t.Fatalf("attempt 100 not capped: %v", d)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Jitter: 0.2}
	rng := rand.New(rand.NewSource(42))
	lo, hi := 80*time.Millisecond, 120*time.Millisecond
	varies := false
	prev := time.Duration(-1)
	for i := 0; i < 100; i++ {
		d := b.Delay(0, rng)
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		if prev >= 0 && d != prev {
			varies = true
		}
		prev = d
	}
	if !varies {
		t.Fatal("jitter produced constant delays")
	}
}

func TestBackoffSleepCancel(t *testing.T) {
	b := Backoff{Base: time.Hour, Jitter: -1}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	if b.Sleep(ctx, 0, nil) {
		t.Fatal("Sleep outlived its context")
	}
}

package main

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/appmult/retrain/internal/wire"
)

func TestTransient(t *testing.T) {
	cases := []struct {
		name   string
		status int
		err    error
		want   bool
	}{
		{"dial error", 0, errors.New("connection refused"), true},
		{"500", http.StatusInternalServerError, nil, true},
		{"502", http.StatusBadGateway, nil, true},
		{"503", http.StatusServiceUnavailable, nil, true},
		{"200", http.StatusOK, nil, false},
		{"400", http.StatusBadRequest, nil, false},
		{"404", http.StatusNotFound, nil, false},
		{"429 is deliberate load-shedding, not transient", http.StatusTooManyRequests, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := transient(tc.status, tc.err); got != tc.want {
				t.Fatalf("transient(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.want)
			}
		})
	}
}

// fastBackoff keeps retry tests quick without disabling the sleep path.
var fastBackoff = wire.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond, Jitter: -1}

func TestDoWithRetryRecovers(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	var retried int
	resp, err := doWithRetry(func() (*http.Response, error) {
		return http.Get(srv.URL)
	}, fastBackoff, rand.New(rand.NewSource(1)), 5, func() { retried++ })
	if err != nil {
		t.Fatalf("request failed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retries, want 200", resp.StatusCode)
	}
	if retried != 2 || calls.Load() != 3 {
		t.Fatalf("retried=%d calls=%d, want 2 retries over 3 calls", retried, calls.Load())
	}
}

func TestDoWithRetryExhaustsBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	var retried int
	resp, err := doWithRetry(func() (*http.Response, error) {
		return http.Get(srv.URL)
	}, fastBackoff, rand.New(rand.NewSource(1)), 3, func() { retried++ })
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	defer resp.Body.Close()
	// The final 5xx comes back unconsumed so the caller records its code.
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want the final 500", resp.StatusCode)
	}
	if calls.Load() != 3 || retried != 2 {
		t.Fatalf("calls=%d retried=%d, want exactly 3 attempts / 2 retries", calls.Load(), retried)
	}
}

func TestDoWithRetryNoRetryOn429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	var retried int
	resp, err := doWithRetry(func() (*http.Response, error) {
		return http.Get(srv.URL)
	}, fastBackoff, rand.New(rand.NewSource(1)), 5, func() { retried++ })
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	resp.Body.Close()
	if calls.Load() != 1 || retried != 0 {
		t.Fatalf("calls=%d retried=%d: 429 must not be retried", calls.Load(), retried)
	}
}

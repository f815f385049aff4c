package main

import (
	"context"
	"io"
	"math/rand"
	"net/http"

	"github.com/appmult/retrain/internal/wire"
)

// transient reports whether a request outcome is worth retrying:
// connection-level failures (dial refused, reset, timeout) and 5xx
// responses, where the server or network may recover momentarily.
// Anything below 500 is authoritative — in particular 429 is NOT
// transient: the server is shedding load deliberately, and retrying
// into an overloaded server makes the overload worse.
func transient(status int, err error) bool {
	if err != nil {
		return true
	}
	return status >= 500
}

// doWithRetry runs do, retrying transient outcomes with capped
// exponential backoff + jitter (the same wire.Backoff policy the
// distributed worker dial loop uses). onRetry is called once per
// retry. When the attempt budget is exhausted the last response (even
// a 5xx) is returned unconsumed so the caller can record its status;
// intermediate responses are drained and closed here.
func doWithRetry(do func() (*http.Response, error), bo wire.Backoff, rng *rand.Rand,
	maxAttempts int, onRetry func()) (*http.Response, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 0; ; attempt++ {
		resp, err := do()
		status := 0
		if resp != nil {
			status = resp.StatusCode
		}
		if !transient(status, err) || attempt+1 >= maxAttempts {
			return resp, err
		}
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		onRetry()
		bo.Sleep(context.Background(), attempt, rng)
	}
}

// Command loadgen drives a running serve or fleetd instance with
// single-image predictions and reports client-side latency percentiles,
// a recorded latency histogram, throughput, the mean achieved batch
// size, and the server's own /statz snapshot. It discovers the model's
// input size from /v1/models, so the only required knowledge is the
// server address.
//
// Two load models are supported:
//
//   - Closed loop (default): -c workers each issue their next request
//     as soon as the previous one returns. Offered load adapts to the
//     server, which hides queueing delay — fine for capacity probing.
//   - Open loop (-rate R): requests arrive on a Poisson process at R
//     req/s regardless of how the server is doing, the way independent
//     clients behave. Queueing delay shows up in the latency tail
//     instead of silently throttling the generator, so this is the
//     mode for latency experiments.
//
// Usage:
//
//	loadgen -url http://localhost:8090 -c 16 -n 2000
//	loadgen -url http://localhost:8090 -rate 200 -n 2000 -lat-out lat.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/appmult/retrain/internal/wire"
)

type predictRequest struct {
	Model     string    `json:"model"`
	Image     []float32 `json:"image"`
	TimeoutMS int       `json:"timeout_ms"`
}

type predictResponse struct {
	Label     int     `json:"label"`
	BatchSize int     `json:"batch_size"`
	TotalMS   float64 `json:"total_ms"`
	// Set by fleetd only; serve leaves them absent (false).
	Cached bool `json:"cached"`
	Hedged bool `json:"hedged"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		base    = flag.String("url", "http://localhost:8090", "serve/fleetd base URL")
		model   = flag.String("model", "", "model name (default: the single served model)")
		n       = flag.Int("n", 1000, "total requests")
		conc    = flag.Int("c", 16, "concurrent workers (closed loop only)")
		rate    = flag.Float64("rate", 0, "open-loop Poisson arrival rate in req/s (0: closed loop)")
		timeout = flag.Int("timeout-ms", 0, "per-request server-side deadline (0: none)")
		seed    = flag.Int64("seed", 1, "image generator seed")
		retries = flag.Int("retries", 5, "max attempts per request for transient failures (dial errors, 5xx)")
		images  = flag.Int("images", 0, "draw inputs from a pool of this many distinct images (0: every request unique) — repeated inputs exercise fleetd's response cache")
		latOut  = flag.String("lat-out", "", "write a JSON latency artifact (histogram + percentiles) to this file")
	)
	flag.Parse()

	bo := wire.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	var retried atomic.Int64

	imageLen, name := discover(*base, *model, bo, *retries, &retried)
	if *rate > 0 {
		log.Printf("target %s model %q (image_len=%d), %d requests, open loop at %.1f req/s",
			*base, name, imageLen, *n, *rate)
	} else {
		log.Printf("target %s model %q (image_len=%d), %d requests over %d closed-loop workers",
			*base, name, imageLen, *n, *conc)
	}

	var (
		mu        sync.Mutex
		latencies []float64
		hist      = newHistogram()
		batchSum  int64
		cachedN   int64
		hedgedN   int64
		codes     = map[int]int{}
	)
	var inflight, peakInflight atomic.Int64

	// With -images N, inputs come from a fixed pool instead of being
	// unique per request; entries are generated once and only read
	// afterwards, so sharing across request goroutines is safe.
	var pool [][]float32
	if *images > 0 {
		prng := rand.New(rand.NewSource(*seed))
		pool = make([][]float32, *images)
		for i := range pool {
			img := make([]float32, imageLen)
			for j := range img {
				img[j] = float32(prng.NormFloat64())
			}
			pool[i] = img
		}
	}

	// doOne issues a single prediction — a fresh image from rng, or a
	// pool pick under -images — and records its outcome. Shared by both
	// load models.
	doOne := func(rng *rand.Rand, img []float32) {
		if pool != nil {
			img = pool[rng.Intn(len(pool))]
		} else {
			for i := range img {
				img[i] = float32(rng.NormFloat64())
			}
		}
		body, _ := json.Marshal(predictRequest{Model: name, Image: img, TimeoutMS: *timeout})
		cur := inflight.Add(1)
		for p := peakInflight.Load(); cur > p && !peakInflight.CompareAndSwap(p, cur); p = peakInflight.Load() {
		}
		defer inflight.Add(-1)
		t0 := time.Now()
		resp, err := doWithRetry(func() (*http.Response, error) {
			return http.Post(*base+"/v1/predict", "application/json", bytes.NewReader(body))
		}, bo, rng, *retries, func() { retried.Add(1) })
		if err != nil {
			mu.Lock()
			codes[-1]++
			mu.Unlock()
			return
		}
		var pr predictResponse
		dec := json.NewDecoder(resp.Body)
		ok := resp.StatusCode == http.StatusOK && dec.Decode(&pr) == nil
		resp.Body.Close()
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		mu.Lock()
		codes[resp.StatusCode]++
		if ok {
			latencies = append(latencies, ms)
			hist.record(ms)
			batchSum += int64(pr.BatchSize)
			if pr.Cached {
				cachedN++
			}
			if pr.Hedged {
				hedgedN++
			}
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	if *rate > 0 {
		// Open loop: arrivals follow a Poisson process — exponential
		// inter-arrival gaps — and each request runs on its own
		// goroutine, so a slow server cannot push back on the
		// generator.
		arrivals := rand.New(rand.NewSource(*seed - 1))
		next := time.Now()
		for i := 0; i < *n; i++ {
			next = next.Add(time.Duration(arrivals.ExpFloat64() / *rate * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(i)))
				doOne(rng, make([]float32, imageLen))
			}(i)
		}
	} else {
		var issued atomic.Int64
		for w := 0; w < *conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(w)))
				img := make([]float32, imageLen)
				for issued.Add(1) <= int64(*n) {
					doOne(rng, img)
				}
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	okN := len(latencies)
	fmt.Printf("requests        %d ok / %d total in %.2fs\n", okN, *n, elapsed.Seconds())
	if r := retried.Load(); r > 0 {
		fmt.Printf("retries         %d (transient failures retried with backoff)\n", r)
	}
	for code, c := range codes {
		if code != http.StatusOK {
			fmt.Printf("  status %d     %d\n", code, c)
		}
	}
	if okN == 0 {
		log.Fatal("no successful requests")
	}
	fmt.Printf("throughput      %.1f req/s\n", float64(okN)/elapsed.Seconds())
	if *rate > 0 {
		fmt.Printf("peak in-flight  %d (open-loop queueing)\n", peakInflight.Load())
	}
	fmt.Printf("mean batch      %.2f (client-observed)\n", float64(batchSum)/float64(okN))
	if cachedN > 0 || hedgedN > 0 {
		fmt.Printf("fleet           %d cached, %d hedged\n", cachedN, hedgedN)
	}
	p := percentiles(latencies, 0.50, 0.95, 0.99, 1.0)
	fmt.Printf("latency ms      p50=%.2f p95=%.2f p99=%.2f max=%.2f\n", p[0], p[1], p[2], p[3])
	fmt.Printf("histogram       %s\n", hist.compact())

	if *latOut != "" {
		art := latencyArtifact{
			Mode:       map[bool]string{true: "open", false: "closed"}[*rate > 0],
			RateRPS:    *rate,
			Requests:   *n,
			OK:         okN,
			ElapsedS:   elapsed.Seconds(),
			Throughput: float64(okN) / elapsed.Seconds(),
			P50:        p[0], P95: p[1], P99: p[2], Max: p[3],
			Cached: cachedN, Hedged: hedgedN,
			Codes:     codes,
			Histogram: hist.export(),
		}
		data, _ := json.MarshalIndent(art, "", "  ")
		if err := os.WriteFile(*latOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *latOut, err)
		}
		log.Printf("latency artifact written to %s", *latOut)
	}

	if stz := statz(*base); stz != nil {
		out, _ := json.MarshalIndent(stz, "", "  ")
		fmt.Printf("server /statz   %s\n", out)
	}
}

// latencyArtifact is the JSON document -lat-out writes: everything a CI
// job or notebook needs to plot one run without re-parsing stdout.
type latencyArtifact struct {
	Mode       string       `json:"mode"`
	RateRPS    float64      `json:"rate_rps,omitempty"`
	Requests   int          `json:"requests"`
	OK         int          `json:"ok"`
	ElapsedS   float64      `json:"elapsed_s"`
	Throughput float64      `json:"throughput_rps"`
	P50        float64      `json:"p50_ms"`
	P95        float64      `json:"p95_ms"`
	P99        float64      `json:"p99_ms"`
	Max        float64      `json:"max_ms"`
	Cached     int64        `json:"cached"`
	Hedged     int64        `json:"hedged"`
	Codes      map[int]int  `json:"status_codes"`
	Histogram  []histBucket `json:"histogram"`
}

// histBucket is one exported histogram bucket: count of samples at or
// below LeMS (and above the previous bucket's edge).
type histBucket struct {
	LeMS  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// histogram is a log-bucketed latency recorder: edges grow
// geometrically from 0.25 ms, so relative resolution is constant
// (~30%) from sub-millisecond cache hits out to multi-second tail
// stalls. Callers synchronize access.
type histogram struct {
	edges  []float64 // upper bucket edges in ms, ascending
	counts []int64   // len(edges)+1; last bucket is overflow
}

func newHistogram() *histogram {
	var edges []float64
	for e := 0.25; e < 120_000; e *= 1.3 {
		edges = append(edges, e)
	}
	return &histogram{edges: edges, counts: make([]int64, len(edges)+1)}
}

func (h *histogram) record(ms float64) {
	i := sort.SearchFloat64s(h.edges, ms)
	h.counts[i]++
}

// compact renders only the occupied buckets, one "≤edge:count" pair
// each — readable in a terminal even for bimodal distributions.
func (h *histogram) compact() string {
	var b bytes.Buffer
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if i < len(h.edges) {
			fmt.Fprintf(&b, "≤%.2g:%d", h.edges[i], c)
		} else {
			fmt.Fprintf(&b, ">%.2g:%d", h.edges[len(h.edges)-1], c)
		}
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

// export returns the occupied buckets for the JSON artifact. The
// overflow bucket exports with a +Inf-standing edge of -1.
func (h *histogram) export() []histBucket {
	var out []histBucket
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		le := -1.0
		if i < len(h.edges) {
			le = h.edges[i]
		}
		out = append(out, histBucket{LeMS: le, Count: c})
	}
	return out
}

// discover reads /v1/models to find the target model's input size. It
// retries transient failures so loadgen can be launched while the
// server is still coming up.
func discover(base, model string, bo wire.Backoff, retries int, retried *atomic.Int64) (imageLen int, name string) {
	resp, err := doWithRetry(func() (*http.Response, error) {
		return http.Get(base + "/v1/models")
	}, bo, rand.New(rand.NewSource(0)), retries, func() { retried.Add(1) })
	if err != nil {
		log.Fatalf("discovering models: %v", err)
	}
	defer resp.Body.Close()
	var ml struct {
		Models []struct {
			Name     string `json:"name"`
			ImageLen int    `json:"image_len"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil || len(ml.Models) == 0 {
		log.Fatalf("bad /v1/models response (err=%v)", err)
	}
	for _, m := range ml.Models {
		if model == "" || m.Name == model {
			return m.ImageLen, m.Name
		}
	}
	log.Fatalf("model %q not served", model)
	return 0, ""
}

// statz fetches the server's own metrics snapshot, nil on any error.
func statz(base string) any {
	resp, err := http.Get(base + "/statz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var v any
	if json.NewDecoder(resp.Body).Decode(&v) != nil {
		return nil
	}
	return v
}

// percentiles returns the nearest-rank percentile of sample for each
// q in qs (q=1.0 is the maximum). It sorts a private copy, so callers
// pass raw data and cannot hit the sorted-precondition bug class the
// old pct helper invited; the caller's slice is never reordered.
func percentiles(sample []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(sample) == 0 {
		return out
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = pct(sorted, q)
	}
	return out
}

// pct is the nearest-rank percentile of a sorted sample.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

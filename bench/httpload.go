package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// Closed-loop HTTP load: each client owns one keep-alive connection and
// sends its next request only after the previous response is read. The
// clients are the callers of a prediction service that each wait for a
// reply, so a slow server receives less load. Request bodies are
// encoded before the clock starts and responses are parsed after it
// stops, so an op's time is the program's, not the generator's.

const (
	imageLen = 3 * 16 * 16
	// Request classes the generator plans before sending.
	classFresh  uint8 = 0
	classRepeat uint8 = 1
)

// plannedReq is one op of a client's plan: which pool image to send and
// the class the generator expects it to fall in.
type plannedReq struct {
	img   int32
	class uint8
}

// imagePool is n seeded images with their pre-encoded request bodies.
type imagePool struct {
	images [][]float32
	bodies [][]byte
}

func newImagePool(n int, seed int64) *imagePool {
	rng := rand.New(rand.NewSource(seed))
	p := &imagePool{images: make([][]float32, n), bodies: make([][]byte, n)}
	for i := range p.images {
		img := make([]float32, imageLen)
		for j := range img {
			img[j] = float32(rng.NormFloat64())
		}
		p.images[i] = img
		// json.Marshal writes the shortest decimal that reads back to
		// the same float32, so the server sees these exact bits.
		body, err := json.Marshal(struct {
			Model string    `json:"model"`
			Image []float32 `json:"image"`
		}{servedModel, img})
		if err != nil {
			panic(err) // a []float32 of finite values always encodes
		}
		p.bodies[i] = body
	}
	return p
}

// uniformPlan spreads ops over clients, each op a seeded pick from the
// pool, all in one class.
func uniformPlan(ops, pool, clients int, seed int64) [][]plannedReq {
	rng := rand.New(rand.NewSource(seed))
	plan := make([][]plannedReq, clients)
	for c := range plan {
		n := ops / clients
		if c < ops%clients {
			n++
		}
		plan[c] = make([]plannedReq, n)
		for i := range plan[c] {
			plan[c][i] = plannedReq{img: int32(rng.Intn(pool))}
		}
	}
	return plan
}

// The cache50 generator. Each client walks its own slice of the pool
// for fresh requests and re-sends, for repeats, one of its recent fresh
// images: recent enough to still be cached, old enough (completed at
// least repeatMinAge requests earlier) that the answer is settled.
const (
	cachePoolPerClient = 384 // fresh images cycle through this many
	cacheWindowEntries = 256 // the router cache holds this many answers
	repeatWindow       = 32  // repeats pick among this many recent fresh images
	repeatMinAge       = 8
	cacheWarmOps       = 16 // a client's first ops are all fresh
)

// cache50Plan plans exactly ops/2 repeats per client (fewer only when a
// client has too few ops to warm up), the rest fresh. A pool image
// recurs as "fresh" only after cachePoolPerClient-1 other inserts by
// the same client, more than the cache holds, so it is a miss again.
func cache50Plan(ops, clients int, seed int64) [][]plannedReq {
	plan := make([][]plannedReq, clients)
	for c := range plan {
		n := ops / clients
		if c < ops%clients {
			n++
		}
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		repeats := n / 2
		if tail := n - cacheWarmOps; repeats > tail {
			repeats = max(tail, 0)
		}
		// isRepeat marks which of the ops after warm-up are repeats.
		isRepeat := make([]bool, max(n-cacheWarmOps, 0))
		for i := 0; i < repeats; i++ {
			isRepeat[i] = true
		}
		rng.Shuffle(len(isRepeat), func(i, j int) { isRepeat[i], isRepeat[j] = isRepeat[j], isRepeat[i] })

		base := int32(c * cachePoolPerClient)
		var freshAt []int // op index at which the k-th fresh request was sent
		plan[c] = make([]plannedReq, n)
		for i := 0; i < n; i++ {
			if i >= cacheWarmOps && isRepeat[i-cacheWarmOps] {
				// Eligible: fresh requests sent at least repeatMinAge ops ago.
				hi := len(freshAt)
				for hi > 0 && freshAt[hi-1] > i-repeatMinAge {
					hi--
				}
				lo := max(hi-repeatWindow, 0)
				k := lo + rng.Intn(hi-lo)
				plan[c][i] = plannedReq{img: base + int32(k%cachePoolPerClient), class: classRepeat}
				continue
			}
			plan[c][i] = plannedReq{img: base + int32(len(freshAt)%cachePoolPerClient), class: classFresh}
			freshAt = append(freshAt, i)
		}
	}
	return plan
}

func planOps(plan [][]plannedReq) int {
	n := 0
	for _, p := range plan {
		n += len(p)
	}
	return n
}

func plannedRepeatShare(plan [][]plannedReq) float64 {
	var rep, n int
	for _, p := range plan {
		for _, r := range p {
			n++
			if r.class == classRepeat {
				rep++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(rep) / float64(n)
}

// httpOp is one finished request.
type httpOp struct {
	req    plannedReq
	ns     int64
	status int
	body   []byte // response body, parsed after the clock stops
	err    error
}

const respSlot = 512 // bytes reserved per response; longer ones allocate

// traceHeader carries "<root span index>,<op id>" to the traced
// handler, so server-side spans hang off the client's round-trip span.
const traceHeader = "X-Bench-Span"

// runHTTP executes the plan against url, one goroutine and one
// connection per client, and returns every op in plan order per client.
func runHTTP(url string, pool *imagePool, plan [][]plannedReq, tr *tracer, prog *progress) [][]httpOp {
	out := make([][]httpOp, len(plan))
	var wg sync.WaitGroup
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tp.CloseIdleConnections()
			cl := &http.Client{Transport: tp}
			ops := make([]httpOp, len(plan[c]))
			arena := make([]byte, len(plan[c])*respSlot)
			for i, pr := range plan[c] {
				op := &ops[i]
				op.req = pr
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(pool.bodies[pr.img]))
				if err != nil {
					op.err = err
					prog.failed.Add(1)
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				id := int32(i*len(plan) + c)
				t0 := time.Now()
				root := tr.begin("http.roundtrip", -1, id)
				if root >= 0 {
					req.Header.Set(traceHeader, fmt.Sprintf("%d,%d", root, id))
				}
				resp, err := cl.Do(req)
				if err == nil {
					op.status = resp.StatusCode
					op.body, err = readBody(resp.Body, arena[i*respSlot:i*respSlot:(i+1)*respSlot])
					resp.Body.Close()
				}
				tr.end(root)
				op.ns = int64(time.Since(t0))
				op.err = err
				if err != nil || op.status != http.StatusOK {
					prog.failed.Add(1)
				} else {
					prog.ok.Add(1)
				}
			}
			out[c] = ops
		}(c)
	}
	wg.Wait()
	return out
}

// readBody reads r to EOF into buf's spare capacity, growing only when
// a response is longer than its slot.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// traced wraps a handler with a server-side span under the client's
// round-trip span.
func traced(h http.Handler, tr *tracer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var root, op int32
		if n, _ := fmt.Sscanf(r.Header.Get(traceHeader), "%d,%d", &root, &op); n != 2 {
			h.ServeHTTP(w, r) // set-up and warm-up requests carry no span
			return
		}
		sp := tr.begin(name, root, op)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// predictReply is the union of serve's and fleet's /v1/predict bodies.
type predictReply struct {
	Scores    []float32 `json:"scores"`
	BatchSize int       `json:"batch_size"`
	QueueMS   float64   `json:"queue_ms"`
	Cached    bool      `json:"cached"`
	Hedged    bool      `json:"hedged"`
	Attempts  int       `json:"attempts"`
}

// checkedOps is the outcome of verifying a phase's responses.
type checkedOps struct {
	sample  opSample       // completed (status 200) ops
	ok      int            // completed and verified
	replies []predictReply // of the ops whose body parsed
	notes   []string
}

// checkReplies verifies every op after the clock has stopped: status
// 200, one score per class, scores Float32bits-equal to want[image],
// and — when checkClass is set — served from the cache exactly when
// the generator planned a repeat.
func checkReplies(ops [][]httpOp, want [][]float32, checkClass bool) checkedOps {
	var out checkedOps
	bad := 0
	note := func(format string, args ...any) {
		bad++
		if len(out.notes) < 5 { // the first few say what went wrong
			out.notes = append(out.notes, fmt.Sprintf(format, args...))
		}
	}
	for c, cl := range ops {
		for i, op := range cl {
			if op.err != nil {
				note("client %d op %d: %v", c, i, op.err)
				continue
			}
			if op.status != http.StatusOK {
				note("client %d op %d: status %d: %s", c, i, op.status, bytes.TrimSpace(op.body))
				continue
			}
			out.sample.ms = append(out.sample.ms, float64(op.ns)/1e6)
			out.sample.class = append(out.sample.class, op.req.class)
			var rep predictReply
			if err := json.Unmarshal(op.body, &rep); err != nil {
				note("client %d op %d: bad body: %v", c, i, err)
				continue
			}
			out.replies = append(out.replies, rep)
			if len(rep.Scores) != classes {
				note("client %d op %d: %d scores, want %d", c, i, len(rep.Scores), classes)
				continue
			}
			if !bitsEqual(rep.Scores, want[op.req.img]) {
				note("client %d op %d image %d: scores %v differ from reference %v", c, i, op.req.img, rep.Scores, want[op.req.img])
				continue
			}
			if checkClass && rep.Cached != (op.req.class == classRepeat) {
				note("client %d op %d: cached=%v but planned class %d", c, i, rep.Cached, op.req.class)
				continue
			}
			out.ok++
		}
	}
	if bad > len(out.notes) {
		out.notes = append(out.notes, fmt.Sprintf("... %d ops failed verification in all", bad))
	}
	return out
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// httpFront serves a handler on a loopback port until close.
type httpFront struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{url: "http://" + ln.Addr().String() + "/v1/predict", srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return f, nil
}

func (f *httpFront) close() {
	f.srv.Close()
	<-f.done
}

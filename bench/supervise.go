package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"
)

// report is what a workload run hands back inside the child.
type report struct {
	e2e     map[string]float64 // --trace 0
	layer   map[string]float64 // --trace 1
	planned int
	ok      int      // ops that succeeded and verified
	notes   []string // what verification found wrong (empty: all good)
	info    map[string]string
}

func newReport() *report {
	return &report{layer: map[string]float64{}, info: map[string]string{}}
}

func (r *report) set(m *measured) {
	r.e2e = m.endToEnd()
	r.planned, r.ok = m.planned, m.ok
	// Ungated context for reading a single run: what the gated,
	// interference-trimmed numbers are being robust against.
	if n := len(m.ops.ms); n > 0 && m.stats != nil {
		r.info["op_ms_p50"] = fmt.Sprintf("%.4g", p50(m.ops.ms))
		r.info["images_per_s_wall"] = fmt.Sprintf("%.4g", float64(n*m.imagesPerOp)/m.stats.wall.Seconds())
		r.info["cpu_ms_per_op"] = fmt.Sprintf("%.4g", float64(m.stats.cpuUsed)/1e6/float64(n))
		r.info["measured_phase_s"] = fmt.Sprintf("%.3g", m.stats.wall.Seconds())
	}
}

// childMsg is one line on the child's report pipe (fd 3): progress
// while it runs, then the final report.
type childMsg struct {
	Progress *[3]int64    `json:"p,omitempty"` // planned, ok, failed
	Report   *childReport `json:"r,omitempty"`
}

type childReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Planned int                `json:"planned"`
	OK      int                `json:"ok"`
	Notes   []string           `json:"notes"`
	Info    map[string]string  `json:"info"`
}

const progressEvery = 250 * time.Millisecond

// childMain runs one workload in this process and streams progress and
// the final report to fd 3.
func childMain(o options) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	pipe := os.NewFile(3, "report")
	if pipe == nil {
		fmt.Fprintln(os.Stderr, "bench: -child needs the report pipe on fd 3")
		return 2
	}
	defer pipe.Close()
	enc := json.NewEncoder(pipe)
	var mu sync.Mutex
	send := func(m childMsg) {
		mu.Lock()
		defer mu.Unlock()
		_ = enc.Encode(m) // a supervisor that went away cannot be told
	}
	rc := o.runCtx()
	if o.quick {
		useQuickScale()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(progressEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				send(childMsg{Progress: &[3]int64{rc.prog.planned.Load(), rc.prog.ok.Load(), rc.prog.failed.Load()}})
			case <-stop:
				return
			}
		}
	}()
	rep, err := w.run(rc)
	close(stop)
	wg.Wait()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	vals := rep.e2e
	if rc.trace {
		vals = rep.layer
	}
	for _, name := range unknownNames(defsFor(o.trace), vals) {
		rep.notes = append(rep.notes, "metric "+name+" is not in the metric table")
	}
	for name, v := range vals {
		if !finite(v) { // JSON cannot carry it: e.g. the NaN loss of a run that accepted no step
			vals[name] = 0
			rep.notes = append(rep.notes, fmt.Sprintf("metric %s is %v", name, v))
		}
	}
	send(childMsg{Report: &childReport{Metrics: vals, Planned: rep.planned, OK: rep.ok, Notes: rep.notes, Info: rep.info}})
	return 0
}

// supervised is one child run as the parent saw it.
type supervised struct {
	result     result
	notes      []string
	info       map[string]string
	crash      string   // why the child did not deliver a report
	stderrTail []string // its last stderr lines, on a crash
	knownCrash bool     // it died of the knownCrash panic
}

// childTimeout keeps a hung child inside the driver's 180 s limit.
const childTimeout = 170 * time.Second

// childArgs is the command line that makes this binary the child for o.
func childArgs(o options) []string {
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-out", o.outDir}
	if o.quick {
		args = append(args, "-quick")
	}
	return args
}

// knownCrash is the panic of the serve.Batcher admit/inflight.Add race
// (README.md, "Defects found while sizing", 1). On a noisy host it kills
// a few percent of the serving runs even at the default 2 ms window: a
// stolen vCPU stalls the admitting goroutine past the batch's
// completion. It predates the benchmark, has nothing to do with what a
// run compares, and must not be fixed here, so a child that dies of
// exactly this is started again (at most maxRestarts times) and the
// restart is reported; any other death is failed ops.
const (
	knownCrash  = "panic: sync: negative WaitGroup counter"
	maxRestarts = 5
)

// runOne re-executes this binary as the child for one workload.
func runOne(o options) supervised {
	exe, err := os.Executable()
	if err != nil {
		return crashed(o.trace, 0, 0, "locating own binary: "+err.Error(), nil)
	}
	for restarts := 0; ; restarts++ {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		res := supervise(exec.CommandContext(ctx, exe, childArgs(o)...), o.trace)
		cancel()
		if !res.knownCrash || restarts == maxRestarts {
			if restarts > 0 {
				if res.info == nil {
					res.info = map[string]string{}
				}
				res.info["child_restarts"] = fmt.Sprintf("%d (serve.Batcher WaitGroup race, README defect 1)", restarts)
			}
			return res
		}
		fmt.Fprintf(os.Stderr, "bench: %s: child died of the known serve.Batcher race; restart %d of %d\n", o.workload, restarts+1, maxRestarts)
	}
}

// supervise starts cmd with a report pipe on its fd 3 and turns
// whatever happens into a complete result: the child's report when it
// delivers one, otherwise the ops it had planned with everything not
// yet ok counted as failed, every metric name still present.
func supervise(cmd *exec.Cmd, trace int) supervised {
	pr, pw, err := os.Pipe()
	if err != nil {
		return crashed(trace, 0, 0, "pipe: "+err.Error(), nil)
	}
	defer pr.Close()
	cmd.ExtraFiles = []*os.File{pw}
	cmd.Stdout = os.Stderr // only the supervisor writes the result to stdout
	tail := &tailWriter{keep: 12}
	cmd.Stderr = io.MultiWriter(os.Stderr, tail)
	if err := cmd.Start(); err != nil {
		pw.Close()
		return crashed(trace, 0, 0, "starting child: "+err.Error(), nil)
	}
	pw.Close() // the child holds the only write end now

	var planned, ok int64
	var rep *childReport
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var m childMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			continue // a torn last line of a dying child
		}
		if m.Progress != nil {
			planned, ok = m.Progress[0], m.Progress[1]
		}
		if m.Report != nil {
			rep = m.Report
		}
	}
	waitErr := cmd.Wait()
	if rep == nil || waitErr != nil {
		why := "exited without a report"
		if waitErr != nil {
			why = waitErr.Error()
		}
		res := crashed(trace, planned, ok, why, tail.lines())
		res.knownCrash = tail.sawKnownCrash()
		return res
	}
	failed := rep.Planned - rep.OK
	res := result{Correct: failed == 0 && len(rep.Notes) == 0, Attempted: max(rep.Planned, 1), Failed: failed,
		Metrics: fill(defsFor(trace), rep.Metrics)}
	return supervised{result: res, notes: rep.Notes, info: rep.Info}
}

// crashed builds the report of a child that died: ops_ok as last
// streamed, the rest of the plan failed.
func crashed(trace int, planned, ok int64, why string, tail []string) supervised {
	if planned < 1 {
		planned, ok = 1, 0 // it died before planning: one op, failed
	}
	vals := map[string]float64{}
	if trace == 0 {
		vals["ok_share"] = float64(ok) / float64(planned)
	}
	return supervised{
		result: result{Correct: false, Attempted: int(planned), Failed: int(planned - ok),
			Metrics: fill(defsFor(trace), vals)},
		crash: why, stderrTail: tail,
	}
}

// tailWriter keeps the last few complete lines written to it, and
// remembers whether any line was the knownCrash panic.
type tailWriter struct {
	mu    sync.Mutex
	keep  int
	buf   []byte
	last  []string
	known bool
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	for {
		i := bytes.IndexByte(t.buf, '\n')
		if i < 0 {
			break
		}
		t.last = append(t.last, string(t.buf[:i]))
		t.known = t.known || t.last[len(t.last)-1] == knownCrash
		if len(t.last) > t.keep {
			t.last = t.last[1:]
		}
		t.buf = t.buf[i+1:]
	}
	return len(p), nil
}

func (t *tailWriter) sawKnownCrash() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.known
}

func (t *tailWriter) lines() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]string(nil), t.last...)
	if len(t.buf) > 0 {
		out = append(out, string(t.buf))
	}
	return out
}

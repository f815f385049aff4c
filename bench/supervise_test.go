package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: as
// the real child when the supervisor re-executes it with -child, and as
// a scripted fake child when fakeChildEnv is set.
func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeChildEnv); mode != "" {
		fakeChild(mode)
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

const fakeChildEnv = "BENCH_FAKE_CHILD"

// fakeChild plays a child on fd 3.
func fakeChild(mode string) {
	enc := json.NewEncoder(os.NewFile(3, "report"))
	if marker, ok := strings.CutPrefix(mode, "race-once:"); ok {
		// Dies of the known serve.Batcher race the first time it is
		// started, runs clean the second time.
		if _, err := os.Stat(marker); err != nil {
			os.WriteFile(marker, nil, 0o644)
			enc.Encode(childMsg{Progress: &[3]int64{100, 40, 0}})
			panic("sync: negative WaitGroup counter")
		}
		enc.Encode(childMsg{Report: &childReport{Metrics: map[string]float64{"ok_share": 1}, Planned: 100, OK: 100}})
		return
	}
	switch mode {
	case "panic":
		// Progress, then the kind of crash the code under test produces.
		enc.Encode(childMsg{Progress: &[3]int64{200, 10, 0}})
		enc.Encode(childMsg{Progress: &[3]int64{200, 150, 0}})
		fmt.Fprintln(os.Stderr, "some log line")
		panic("sync: negative WaitGroup counter")
	case "wrong-score":
		// A clean run of 50 requests whose verification finds one score
		// vector off by one bit pattern.
		const n = 50
		want := [][]float32{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
		body, _ := json.Marshal(predictReply{Scores: want[0], BatchSize: 2})
		bad, _ := json.Marshal(predictReply{Scores: []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.000001}, BatchSize: 2})
		ops := [][]httpOp{make([]httpOp, n)}
		for i := range ops[0] {
			ops[0][i] = httpOp{ns: int64(1e6 + i), status: http.StatusOK, body: body}
		}
		ops[0][17].body = bad
		chk := checkReplies(ops, want, false)
		rep := newReport()
		rep.notes = chk.notes
		rep.set(&measured{ops: chk.sample, planned: n, ok: chk.ok, imagesPerOp: 1, clients: 1,
			stats: &phaseStats{mallocs: 100, allocBytes: 1000}, peakRSSMB: 10, setupS: []float64{0.1}})
		enc.Encode(childMsg{Report: &childReport{Metrics: rep.e2e, Planned: rep.planned, OK: rep.ok, Notes: rep.notes}})
	}
}

func fakeCmd(t *testing.T, mode string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fakeChildEnv+"="+mode)
	return cmd
}

func TestSupervisorTurnsACrashIntoFailedOps(t *testing.T) {
	res := supervise(fakeCmd(t, "panic"), 0)
	if res.crash == "" {
		t.Fatal("supervisor did not notice the child crashed")
	}
	r := res.result
	if r.Correct || r.Attempted != 200 || r.Failed != 50 {
		t.Errorf("result = correct %v, attempted %d, failed %d; want false, 200, 50", r.Correct, r.Attempted, r.Failed)
	}
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.Name]; !ok {
			t.Errorf("crash report lacks metric %s", d.Name)
		}
	}
	if len(r.Metrics) != len(endToEnd) {
		t.Errorf("crash report has %d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
	if got := r.Metrics["ok_share"].Value; got != 150.0/200 {
		t.Errorf("ok_share = %v, want completed/planned = 0.75", got)
	}
	found := false
	for _, l := range res.stderrTail {
		if l == "panic: sync: negative WaitGroup counter" {
			found = true
		}
	}
	if !found {
		t.Errorf("stderr tail lacks the panic line: %q", res.stderrTail)
	}
	// The traced mode's crash report names every per-layer metric.
	if res := supervise(fakeCmd(t, "panic"), 1); len(res.result.Metrics) != len(perLayer) {
		t.Errorf("traced crash report has %d metrics, want %d", len(res.result.Metrics), len(perLayer))
	}
}

func TestKnownBatcherRaceRestartsTheChild(t *testing.T) {
	t.Setenv(fakeChildEnv, "race-once:"+filepath.Join(t.TempDir(), "crashed-once"))
	res := runOne(options{workload: "serve_http_lenet", outDir: t.TempDir()})
	if res.crash != "" || !res.result.Correct || res.result.Failed != 0 || res.result.Attempted != 100 {
		t.Fatalf("restarted run: crash %q, result %+v; want a clean report of 100 ops", res.crash, res.result)
	}
	if res.info["child_restarts"] == "" {
		t.Error("the restart is not reported")
	}
	// Any other death is not retried: "panic" mode also dies of the race
	// signature, so use up the restarts and see the crash come through.
	t.Setenv(fakeChildEnv, "panic")
	if res := runOne(options{workload: "serve_http_lenet", outDir: t.TempDir()}); res.crash == "" || res.result.Failed != 50 {
		t.Errorf("a child that keeps dying must be reported as failed ops, got crash %q failed %d", res.crash, res.result.Failed)
	}
}

func TestOneWrongScoreCostsExactlyOneOp(t *testing.T) {
	res := supervise(fakeCmd(t, "wrong-score"), 0)
	if res.crash != "" {
		t.Fatalf("clean child reported as crashed: %s %q", res.crash, res.stderrTail)
	}
	r := res.result
	if r.Correct || r.Attempted != 50 || r.Failed != 1 {
		t.Errorf("result = correct %v, attempted %d, failed %d; want false, 50, 1", r.Correct, r.Attempted, r.Failed)
	}
	if got := r.Metrics["ok_share"].Value; got != 49.0/50 {
		t.Errorf("ok_share = %v, want 49/50", got)
	}
	if len(res.notes) == 0 {
		t.Error("no verification note names the wrong score")
	}
	// The wrong answer still took time: it stays in the latency sample.
	if got := r.Metrics["op_ms_p10"].Value; got <= 0 {
		t.Errorf("op_ms_p10 = %v, want > 0", got)
	}
}

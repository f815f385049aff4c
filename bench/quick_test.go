package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestManifestMatchesBenchmarkJSON fails on name drift between the
// metric and workload tables and the committed BENCHMARK.json.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if err := json.Unmarshal(manifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go/main.go; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not describe metric %s", d.Name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}

// TestQuickSmoke runs all five workloads end to end at 1/20 op counts,
// in both modes, and the traced mode a second time. It fails when a run
// does not verify, when the emitted metric names are not exactly the
// listed ones, or when a count that must repeat exactly for a seed does
// not.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload: about half a minute")
	}
	out := t.TempDir()
	run := func(w string, trace int) result {
		t.Helper()
		res := runOne(options{workload: w, seed: 11, seconds: runSeconds, trace: trace, quick: true, outDir: out})
		if res.crash != "" {
			t.Fatalf("%s trace=%d: child failed: %s\n%q", w, trace, res.crash, res.stderrTail)
		}
		if !res.result.Correct || res.result.Failed != 0 {
			t.Errorf("%s trace=%d: not correct: %d of %d failed: %q", w, trace, res.result.Failed, res.result.Attempted, res.notes)
		}
		defs := defsFor(trace)
		if len(res.result.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.result.Metrics), len(defs))
		}
		for _, d := range defs {
			mv, ok := res.result.Metrics[d.Name]
			if !ok || mv.Unit != d.Unit {
				t.Errorf("%s trace=%d: metric %s missing or unit %q != %q", w, trace, d.Name, mv.Unit, d.Unit)
			}
		}
		return res.result
	}
	for _, w := range workloads {
		e2e := run(w.name, 0)
		for _, d := range endToEnd {
			if e2e.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, e2e.Metrics[d.Name].Value)
			}
		}
		if got := e2e.Metrics["ok_share"].Value; got != 1 {
			t.Errorf("%s: ok_share = %v, want 1", w.name, got)
		}
		a, b := run(w.name, 1), run(w.name, 1)
		for _, d := range perLayer {
			if d.exactOn(w.name) && a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
				t.Errorf("%s: count %s differs between two runs of one seed: %v vs %v", w.name, d.Name,
					a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		// Each workload must still take the kernel tier it was chosen for.
		fused, affine, small := a.Metrics["nn.dispatch.bwd_fused_per_op"].Value, a.Metrics["nn.dispatch.bwd_affine_per_op"].Value, a.Metrics["nn.dispatch.bwd_small_per_op"].Value
		switch w.name {
		case "retrain_vgg11_smoothdiff":
			if !(fused > 0 && affine == 0) {
				t.Errorf("%s: fused %v affine %v, want fused > 0 = affine", w.name, fused, affine)
			}
		case "retrain_resnet18_ste_shards2":
			if !(affine > 0 && fused == 0) {
				t.Errorf("%s: fused %v affine %v, want affine > 0 = fused", w.name, fused, affine)
			}
		case "retrain_lenet_dist2":
			if !(small > 0 && fused == 0 && affine == 0) {
				t.Errorf("%s: fused %v affine %v small %v, want only small", w.name, fused, affine, small)
			}
		case "fleet_http_vgg11_cache50":
			// Equality with the planned share is part of the run's own
			// verification; here only that repeats were planned at all.
			if got := a.Metrics["fleet.cache_hit_share"].Value; !(got > 0.4 && got <= 0.5) {
				t.Errorf("%s: cache hit share %v, want just under the planned 0.5", w.name, got)
			}
		}
	}
}

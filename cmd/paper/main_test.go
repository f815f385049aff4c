package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/obs"
)

// readCounter reads one counter series of the process registry (0 when
// it does not exist yet).
func readCounter(name string, labels ...string) float64 {
	v, _ := obs.Default().ReadValue(name, labels...)
	return v
}

// TestArtifactsReproduce regenerates the artifacts that take seconds and
// compares each with its committed file byte for byte. An artifact that
// differs under -tags purego is a bit-identity bug of the portable
// kernels, not a reason to skip.
//
// The estimator matrix runs every estimator through the sharded step, so
// it also carries the telemetry checks of a sharded retraining run: one
// train_runs_total per leg under its estimator label (the QAT references,
// one per bit width, count as ste), and every backward dispatch tier
// exported, with LeNet's sparse upstream gradient (ReLU + 2×2 max pool)
// reaching the small tier.
func TestArtifactsReproduce(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, name := range []string{"table1", "fig3", "ablation_smoothing", "ablation_boundary", "hws_mul6u_rm4", "estimator_matrix"} {
		t.Run(name, func(t *testing.T) {
			entries, err := selectEntries(name)
			if err != nil {
				t.Fatal(err)
			}
			estimators := []string{"ste", "smoothdiff", "cvste", "stochastic"}
			runs := map[string]float64{}
			for _, est := range estimators {
				runs[est] = readCounter("train_runs_total", "estimator", est)
			}
			small := readCounter("nn_kernel_dispatch_total", "kernel", "backward", "path", "small")

			var got bytes.Buffer
			if err := entries[0].run(&got, ""); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "experiments", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("experiments/%s.txt does not reproduce; got:\n%s", name, got.String())
			}
			if name != "estimator_matrix" {
				return
			}

			rows := len(tableIIMults)
			bits := map[int]bool{}
			for _, m := range tableIIMults {
				e, _ := appmult.Lookup(m)
				bits[e.Mult.Bits()] = true
			}
			for _, est := range estimators {
				want := float64(rows)
				if est == "ste" {
					want += float64(len(bits))
				}
				if d := readCounter("train_runs_total", "estimator", est) - runs[est]; d != want {
					t.Errorf("train_runs_total{estimator=%q} rose by %v, want %v", est, d, want)
				}
				if _, ok := obs.Default().ReadValue("nn_estimator_ops_total", "estimator", est); !ok {
					t.Errorf("nn_estimator_ops_total{estimator=%q} not exported", est)
				}
			}
			for _, tier := range []string{"affine", "mixed", "fused", "small"} {
				if _, ok := obs.Default().ReadValue("nn_kernel_dispatch_total", "kernel", "backward", "path", tier); !ok {
					t.Errorf("nn_kernel_dispatch_total{kernel=\"backward\",path=%q} not exported", tier)
				}
			}
			if d := readCounter("nn_kernel_dispatch_total", "kernel", "backward", "path", "small") - small; d < 1 {
				t.Errorf("backward small-tier dispatches rose by %v, want >= 1", d)
			}
		})
	}
}

// TestManifestCoversExperiments: every experiments/*.txt is named by
// exactly one manifest entry, so no artifact exists that nothing
// regenerates. It matches names only: the files TestArtifactsReproduce
// does not compare need not be what their entries print today (the
// pre-fix table2_* files and fig6_small predate their entries).
func TestManifestCoversExperiments(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range manifest {
		if seen[e.name] {
			t.Errorf("manifest lists %q twice", e.name)
		}
		seen[e.name] = true
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "experiments", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil && fi.IsDir() {
			continue // experiments/ckpt: -resume's checkpoints
		}
		name, ok := strings.CutSuffix(filepath.Base(f), ".txt")
		if !ok || !seen[name] {
			t.Errorf("experiments/%s is not the output of a manifest entry", filepath.Base(f))
		}
	}
}

// TestResumeReproduces runs an entry with a checkpoint directory twice:
// the first run leaves one checkpoint per training leg, the second
// replays the finished legs from them without training an epoch, and
// both print the committed artifact.
func TestResumeReproduces(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	const name = "ablation_boundary"
	entries, err := selectEntries(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, pass := range []string{"fresh", "resumed"} {
		epochs := readCounter("train_epochs_total")
		var got bytes.Buffer
		if err := entries[0].run(&got, dir); err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		trained := readCounter("train_epochs_total") - epochs
		if (pass == "fresh") != (trained > 0) {
			t.Errorf("%s run trained %v epochs", pass, trained)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s run does not reproduce experiments/%s.txt; got:\n%s", pass, name, got.String())
		}
		for _, leg := range []string{"eq6", "clamp"} {
			if _, err := os.Stat(filepath.Join(dir, leg+".ckpt")); err != nil {
				t.Fatalf("%s run: leg %s left no checkpoint: %v", pass, leg, err)
			}
		}
	}
}

// TestProduceDeletesCheckpoints: produce with resume writes the
// artifact and then deletes the entry's checkpoint directory, so a later
// -resume retrains instead of replaying a finished run's checkpoints.
func TestProduceDeletesCheckpoints(t *testing.T) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	const name = "ablation_boundary"
	entries, err := selectEntries(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "experiments", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "experiments"), 0o755); err != nil {
		t.Fatal(err)
	}
	path, err := produce(entries[0], root, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s does not reproduce experiments/%s.txt (%v)", path, name, err)
	}
	if _, err := os.Stat(filepath.Join(root, "experiments", "ckpt", name)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint directory left behind after the artifact was written (stat: %v)", err)
	}
}

func TestSelectEntriesRejectsUnknownName(t *testing.T) {
	_, err := selectEntries("table1,table9")
	if err == nil || !strings.Contains(err.Error(), `"table9"`) || !strings.Contains(err.Error(), "estimator_matrix") {
		t.Fatalf("got %v, want an error naming table9 and listing the manifest", err)
	}
	all, err := selectEntries("all")
	if err != nil || len(all) != len(manifest) {
		t.Fatalf("all: %d entries, %v", len(all), err)
	}
}

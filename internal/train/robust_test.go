package train

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

func TestGuardedRecoversPanics(t *testing.T) {
	if err := guarded(func() {}); err != nil {
		t.Errorf("healthy fn returned %v", err)
	}
	err := guarded(func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("string panic lost: %v", err)
	}
	inner := errors.New("inner")
	err = guarded(func() { panic(inner) })
	if !errors.Is(err, inner) {
		t.Errorf("error panic not wrapped: %v", err)
	}
	err = guarded(func() { _ = []int{}[1] })
	if err == nil {
		t.Error("runtime panic not recovered")
	}
}

// robustScale is small enough that each Run takes well under a second.
var robustScale = Scale{HW: 8, Width: 0.08, Train: 24, Test: 12, Epochs: 4, BatchSize: 6, LR0: 8e-3}

func robustData(t *testing.T, classes int) (*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test := data.Synthetic(data.SynthConfig{
		Classes: classes, Train: robustScale.Train, Test: robustScale.Test, HW: robustScale.HW, Seed: 5,
	})
	return train, test
}

func robustModel(initSeed int64) *nn.Sequential {
	op := nn.STEOp(appmult.NewAccurate(6))
	return BuildModel("lenet", 3, robustScale, models.ApproxConv(op), initSeed)
}

// floatModel is for the NaN-poisoning tests: approximate convs clamp
// NaN away during quantization, float convs propagate it to the loss.
func floatModel(initSeed int64) *nn.Sequential {
	return BuildModel("lenet", 3, robustScale, models.FloatConv(), initSeed)
}

func paramsEqual(t *testing.T, a, b *nn.Sequential) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("parameter counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			x, y := pa[i].Value.Data[j], pb[i].Value.Data[j]
			if math.Float32bits(x) != math.Float32bits(y) {
				t.Fatalf("parameter %q diverges at %d: %v vs %v (bit patterns %#x vs %#x)",
					pa[i].Name, j, x, y, math.Float32bits(x), math.Float32bits(y))
			}
		}
	}
}

// TestResumeEquivalence is the headline robustness guarantee: training
// N epochs straight and training k epochs, dying, and resuming from
// the checkpoint must produce bit-identical parameters and identical
// accuracy trajectories.
func TestResumeEquivalence(t *testing.T) {
	trainSet, testSet := robustData(t, 3)
	// The schedule must be pinned explicitly: a nil schedule derives
	// from Epochs, which differs between the 2-epoch and 4-epoch legs.
	sched := optim.PaperSchedule(4)
	base := Config{Epochs: 4, BatchSize: robustScale.BatchSize, Schedule: sched, Seed: 9}

	straight := robustModel(1)
	wantRes := Run(straight, trainSet, testSet, base)

	ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
	killed := robustModel(1)
	firstLeg := base
	firstLeg.Epochs = 2 // the "kill": stop after 2 of 4 epochs
	firstLeg.CkptPath = ckpt
	Run(killed, trainSet, testSet, firstLeg)

	// Resume into a differently initialized model: the checkpoint must
	// fully determine the parameters.
	resumed := robustModel(2)
	secondLeg := base
	secondLeg.CkptPath = ckpt
	secondLeg.Resume = true
	gotRes := Run(resumed, trainSet, testSet, secondLeg)

	paramsEqual(t, straight, resumed)
	if len(gotRes.TestTop1) != len(wantRes.TestTop1) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(gotRes.TestTop1), len(wantRes.TestTop1))
	}
	for i := range wantRes.TestTop1 {
		if gotRes.TestTop1[i] != wantRes.TestTop1[i] || gotRes.TrainLoss[i] != wantRes.TrainLoss[i] {
			t.Errorf("epoch %d diverges: top1 %v vs %v, loss %v vs %v", i+1,
				gotRes.TestTop1[i], wantRes.TestTop1[i], gotRes.TrainLoss[i], wantRes.TrainLoss[i])
		}
	}
}

// TestResumeCompletedRun replays a finished run from its checkpoint
// without retraining.
func TestResumeCompletedRun(t *testing.T) {
	trainSet, testSet := robustData(t, 3)
	ckpt := filepath.Join(t.TempDir(), "done.ckpt")
	cfg := Config{Epochs: 3, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3, CkptPath: ckpt}
	m := robustModel(1)
	want := Run(m, trainSet, testSet, cfg)

	cfg.Resume = true
	m2 := robustModel(7)
	got := Run(m2, trainSet, testSet, cfg)
	paramsEqual(t, m, m2)
	if got.FinalTop1() != want.FinalTop1() || len(got.TestTop1) != len(want.TestTop1) {
		t.Errorf("replayed result differs: %+v vs %+v", got.TestTop1, want.TestTop1)
	}
}

func TestResumeSeedMismatchRefused(t *testing.T) {
	trainSet, testSet := robustData(t, 3)
	ckpt := filepath.Join(t.TempDir(), "seed.ckpt")
	cfg := Config{Epochs: 2, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3, CkptPath: ckpt}
	Run(robustModel(1), trainSet, testSet, cfg)

	defer func() {
		if recover() == nil {
			t.Error("resume under a different seed did not panic")
		}
	}()
	cfg.Resume = true
	cfg.Seed = 4
	Run(robustModel(1), trainSet, testSet, cfg)
}

func TestResumeCorruptCheckpointRefused(t *testing.T) {
	trainSet, testSet := robustData(t, 3)
	ckpt := filepath.Join(t.TempDir(), "corrupt.ckpt")
	cfg := Config{Epochs: 2, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3, CkptPath: ckpt}
	Run(robustModel(1), trainSet, testSet, cfg)

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("resume from a corrupt checkpoint did not panic")
		}
	}()
	cfg.Resume = true
	Run(robustModel(1), trainSet, testSet, cfg)
}

// poison returns copies of the splits with one corrupted training
// image: NaN pixels (non-finite loss) or an out-of-range label (panic
// inside the loss).
func poison(t *testing.T, mode string) (*data.Dataset, *data.Dataset) {
	t.Helper()
	trainSet, testSet := robustData(t, 3)
	switch mode {
	case "nan":
		img := trainSet.Image(0) // just for the element count
		for i := 0; i < img.Numel(); i++ {
			trainSet.X.Data[i] = float32(math.NaN())
		}
	case "label":
		trainSet.Y[0] = 99
	default:
		t.Fatalf("unknown poison mode %q", mode)
	}
	return trainSet, testSet
}

func TestGuardSkipsNaNBatch(t *testing.T) {
	trainSet, testSet := poison(t, "nan")
	cfg := Config{Epochs: 2, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3}
	m := floatModel(1)
	res := Run(m, trainSet, testSet, cfg)
	if res.SkippedSteps == 0 {
		t.Error("NaN batch was not skipped")
	}
	for _, p := range m.Params() {
		for i, v := range p.Value.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("parameter %q poisoned at %d: %v", p.Name, i, v)
			}
		}
	}
	if res.Healthy() {
		t.Error("Healthy() true despite skipped steps")
	}
}

func TestGuardRecoversPanickingBatch(t *testing.T) {
	trainSet, testSet := poison(t, "label")
	cfg := Config{Epochs: 2, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3}
	res := Run(robustModel(1), trainSet, testSet, cfg)
	if res.SkippedSteps == 0 {
		t.Error("panicking batch was not recovered and skipped")
	}
	if len(res.TestTop1) != cfg.Epochs {
		t.Errorf("run did not complete: %d/%d epochs", len(res.TestTop1), cfg.Epochs)
	}
}

func TestSpikeRollback(t *testing.T) {
	trainSet, testSet := poison(t, "nan")
	cfg := Config{Epochs: 2, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3,
		SpikeFactor: 10}
	m := floatModel(1)
	res := Run(m, trainSet, testSet, cfg)
	if res.Rollbacks == 0 {
		t.Error("non-finite loss did not trigger a rollback with SpikeFactor set")
	}
	for _, p := range m.Params() {
		for _, v := range p.Value.Data {
			if math.IsNaN(float64(v)) {
				t.Fatal("rollback left NaN parameters")
			}
		}
	}
}

func TestLossAnomaly(t *testing.T) {
	for _, tc := range []struct {
		loss, sum   float64
		accepted    int
		factor      float64
		bad, spiked bool
	}{
		{1.0, 8.0, 8, 10, false, false},      // normal
		{math.NaN(), 8.0, 8, 0, true, false}, // NaN always bad
		{math.Inf(1), 8.0, 8, 10, true, false},
		{20.0, 8.0, 8, 10, true, true},   // 20 > 10*1.0
		{20.0, 7.0, 7, 10, false, false}, // window not full yet
		{20.0, 8.0, 8, 0, false, false},  // detector disabled
	} {
		bad, spiked := lossAnomaly(tc.loss, tc.sum, tc.accepted, tc.factor)
		if bad != tc.bad || spiked != tc.spiked {
			t.Errorf("lossAnomaly(%v, %v, %d, %v) = (%v, %v), want (%v, %v)",
				tc.loss, tc.sum, tc.accepted, tc.factor, bad, spiked, tc.bad, tc.spiked)
		}
	}
}

func TestCheckpointStateRoundTrip(t *testing.T) {
	trainSet, testSet := robustData(t, 3)
	ckpt := filepath.Join(t.TempDir(), "rt.ckpt")
	cfg := Config{Epochs: 2, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3,
		CkptPath: ckpt}
	m := robustModel(1)
	res := Run(m, trainSet, testSet, cfg)

	fresh := robustModel(4)
	st, err := LoadCheckpoint(ckpt, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 || st.Seed != 3 {
		t.Errorf("state epoch/seed = %d/%d, want 2/3", st.Epoch, st.Seed)
	}
	if len(st.Result.TrainLoss) != 2 || st.Result.FinalTop1() != res.FinalTop1() {
		t.Errorf("restored result %+v does not match %+v", st.Result.TestTop1, res.TestTop1)
	}
	paramsEqual(t, m, fresh)
	if len(st.Adam.M) != len(m.Params()) {
		t.Errorf("Adam state has %d moment vectors, want %d", len(st.Adam.M), len(m.Params()))
	}
	if st.Adam.Step == 0 {
		t.Error("Adam step count not restored")
	}
}

func TestLoadCheckpointRejectsCorruption(t *testing.T) {
	trainSet, testSet := robustData(t, 3)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "c.ckpt")
	cfg := Config{Epochs: 1, BatchSize: robustScale.BatchSize, Schedule: robustScale.Schedule(), Seed: 3,
		CkptPath: ckpt}
	Run(robustModel(1), trainSet, testSet, cfg)
	good, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"empty":       func(b []byte) []byte { return nil },
		"short":       func(b []byte) []byte { return b[:7] },
		"bad magic":   func(b []byte) []byte { b[0] = 'X'; return b },
		"flipped bit": func(b []byte) []byte { b[len(b)/3] ^= 1; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-9] },
		"extended":    func(b []byte) []byte { return append(b, 0, 1, 2, 3) },
	} {
		bad := mutate(append([]byte(nil), good...))
		p := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p, robustModel(1)); err == nil {
			t.Errorf("%s checkpoint accepted", name)
		}
	}
}

package train

import (
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

func tinyData(t *testing.T, classes int) (*data.Dataset, *data.Dataset) {
	t.Helper()
	return data.Synthetic(data.SynthConfig{
		Classes: classes, Train: 60, Test: 30, HW: 8, Seed: 42,
	})
}

func TestRunLearnsFloatLeNet(t *testing.T) {
	trainSet, testSet := tinyData(t, 4)
	model := models.LeNet(models.Config{Classes: 4, InputHW: 8, Width: 0.25, Seed: 1})
	res := Run(model, trainSet, testSet, Config{
		Epochs: 6, BatchSize: 10, Seed: 1,
		Schedule: optim.Schedule{{UntilEpoch: 6, LR: 5e-3}},
	})
	if len(res.TrainLoss) != 6 || len(res.TestTop1) != 6 {
		t.Fatalf("trajectory lengths %d/%d", len(res.TrainLoss), len(res.TestTop1))
	}
	if res.FinalLoss() >= res.TrainLoss[0] {
		t.Errorf("loss did not fall: %.4f -> %.4f", res.TrainLoss[0], res.FinalLoss())
	}
	if res.FinalTop1() <= 100.0/4 {
		t.Errorf("accuracy %.2f%% not above chance", res.FinalTop1())
	}
}

func TestRunDeterminism(t *testing.T) {
	trainSet, testSet := tinyData(t, 3)
	mk := func() Result {
		model := models.LeNet(models.Config{Classes: 3, InputHW: 8, Width: 0.25, Seed: 5})
		return Run(model, trainSet, testSet, Config{Epochs: 2, BatchSize: 10, Seed: 5})
	}
	a, b := mk(), mk()
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] {
			t.Fatalf("non-deterministic training at epoch %d: %v vs %v", i, a.TrainLoss[i], b.TrainLoss[i])
		}
	}
}

func TestEvaluateTop5(t *testing.T) {
	trainSet, _ := tinyData(t, 4)
	model := models.LeNet(models.Config{Classes: 4, InputHW: 8, Width: 0.25, Seed: 2})
	_, top5 := Evaluate(model, trainSet, 16)
	if top5 != 100 {
		t.Errorf("top-5 over 4 classes = %.2f%%, want 100%%", top5)
	}
}

func TestBuildModelKinds(t *testing.T) {
	sc := Scale{HW: 8, Width: 0.08, Train: 10, Test: 5, Epochs: 1, BatchSize: 5}
	for _, kind := range []string{"lenet", "vgg11", "vgg16", "vgg19", "resnet18", "resnet34", "resnet50"} {
		m := BuildModel(kind, 10, sc, nil, 1)
		if m == nil || len(m.Params()) == 0 {
			t.Errorf("%s: empty model", kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind accepted")
		}
	}()
	BuildModel("alexnet", 10, sc, nil, 1)
}

// TestTableIIEndToEnd runs the full Table II pipeline at tiny
// scale with a large-error multiplier: QAT reference, initial AppMult
// accuracy, STE retraining, difference retraining. It asserts
// structural invariants (retraining recovers accuracy over the initial
// model) rather than which estimator wins at this scale.
func TestTableIIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end retraining")
	}
	sc := TinyScale
	res := TableII([]string{"mul6u_rm4"}, []string{"lenet"}, 4, sc, 7, nil, CompareOptions{})[0]
	if res.Multiplier != "mul6u_rm4" || res.Model != "lenet" {
		t.Fatalf("identity: %+v", res)
	}
	if res.RefTop1 <= 100.0/4 {
		t.Errorf("QAT reference %.2f%% not above chance", res.RefTop1)
	}
	if len(res.STE.TestTop1) != sc.Epochs || len(res.Ours.TestTop1) != sc.Epochs {
		t.Fatalf("trajectory lengths %d/%d", len(res.STE.TestTop1), len(res.Ours.TestTop1))
	}
	if res.STE.FinalTop1() < res.InitialTop1-10 {
		t.Errorf("STE retraining lost accuracy: initial %.2f%% -> %.2f%%", res.InitialTop1, res.STE.FinalTop1())
	}
	if res.Ours.FinalTop1() < res.InitialTop1-10 {
		t.Errorf("difference retraining lost accuracy: initial %.2f%% -> %.2f%%", res.InitialTop1, res.Ours.FinalTop1())
	}
	if got := res.Ours.FinalTop1() - res.STE.FinalTop1(); got != res.Improve {
		t.Errorf("Improve %.2f inconsistent with trajectories (%.2f)", res.Improve, got)
	}
}

func TestSweepEstimatorsSelectsCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains LeNet per candidate")
	}
	e, _ := appmult.Lookup("mul6u_rm4")
	sc := Scale{HW: 8, Width: 0.08, Train: 60, Test: 30, Epochs: 2, BatchSize: 10}
	cells := SweepEstimators(e.Mult, nil, []int{1, 2, 8}, 4, sc, 3, nil)
	if len(cells) != 3 {
		t.Fatalf("losses recorded for %d candidates", len(cells))
	}
	best := BestCell(cells)
	if best.HWS != 1 && best.HWS != 2 && best.HWS != 8 {
		t.Fatalf("best HWS %d not among candidates", best.HWS)
	}
	for _, c := range cells {
		if best.Loss > c.Loss {
			t.Errorf("best HWS %d (loss %v) does not minimize loss: HWS %d has %v", best.HWS, best.Loss, c.HWS, c.Loss)
		}
	}
}

func TestSweepEstimatorsSkipsOversizedCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains LeNet per candidate")
	}
	e, _ := appmult.Lookup("mul6u_rm4") // 6-bit: MaxHWS = 31
	sc := Scale{HW: 8, Width: 0.08, Train: 40, Test: 20, Epochs: 1, BatchSize: 10}
	for _, c := range SweepEstimators(e.Mult, nil, []int{2, 64}, 4, sc, 3, nil) {
		if c.HWS == 64 {
			t.Error("HWS 64 should be skipped for a 6-bit multiplier")
		}
	}
}

func TestPaperScheduleIsDefault(t *testing.T) {
	cfg := Config{Epochs: 30, BatchSize: 64}
	s := cfg.schedule()
	if s.At(1) != 1e-3 || s.At(15) != 5e-4 || s.At(30) != 2.5e-4 {
		t.Error("default schedule is not the paper's")
	}
	custom := Config{Epochs: 2, BatchSize: 4, Schedule: optim.Schedule{{UntilEpoch: 2, LR: 0.5}}}
	if custom.schedule().At(1) != 0.5 {
		t.Error("custom schedule ignored")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	trainSet, testSet := tinyData(t, 3)
	model := models.LeNet(models.Config{Classes: 3, InputHW: 8, Width: 0.25, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("zero-epoch config accepted")
		}
	}()
	Run(model, trainSet, testSet, Config{Epochs: 0, BatchSize: 4})
}

func TestApproxModelTrainsAboveChance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an approximate model")
	}
	e, _ := appmult.Lookup("mul6u_rm4")
	trainSet, testSet := tinyData(t, 4)
	op := nn.DifferenceOp(e.Mult, e.HWS)
	model := models.LeNet(models.Config{
		Classes: 4, InputHW: 8, Width: 0.25,
		Conv: models.ApproxConv(op), Seed: 11,
	})
	res := Run(model, trainSet, testSet, Config{
		Epochs: 6, BatchSize: 10, Seed: 11,
		Schedule: optim.Schedule{{UntilEpoch: 6, LR: 5e-3}},
	})
	if res.FinalTop1() <= 100.0/4 {
		t.Errorf("approximate LeNet stuck at chance: %.2f%%", res.FinalTop1())
	}
}

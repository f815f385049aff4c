package train

import (
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
)

// TestEvaluateBatchSizeInvariance: evaluation accuracy must not depend
// on how the test set is split into batches (eval mode uses running
// statistics and frozen observers).
func TestEvaluateBatchSizeInvariance(t *testing.T) {
	trainSet, testSet := tinyData(t, 4)
	e, _ := appmult.Lookup("mul6u_rm4")
	model := models.LeNet(models.Config{
		Classes: 4, InputHW: 8, Width: 0.25,
		Conv: models.ApproxConv(nn.STEOp(e.Mult)), Seed: 71,
	})
	// A couple of epochs so observers and running stats are populated.
	Run(model, trainSet, testSet, Config{
		Epochs: 2, BatchSize: 10, Seed: 71,
		Schedule: optim.Schedule{{UntilEpoch: 2, LR: 3e-3}},
	})
	ref1, ref5 := Evaluate(model, testSet, 30)
	for _, bs := range []int{1, 7, 13, 30} {
		t1, t5 := Evaluate(model, testSet, bs)
		if t1 != ref1 || t5 != ref5 {
			t.Errorf("batch size %d changes evaluation: (%.2f,%.2f) vs (%.2f,%.2f)",
				bs, t1, t5, ref1, ref5)
		}
	}
}

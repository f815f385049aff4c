package retrain_test

import (
	"fmt"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/errmetrics"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/train"
)

// Example_quickstart characterizes an approximate multiplier, builds
// its difference-based gradient tables, and retrains a small CNN with
// it and with the STE baseline: the library's whole pipeline. Every
// step is seeded, so the output is the same on every host and kernel
// tier.
func Example_quickstart() {
	// 1. Pick an approximate multiplier from the Table I registry.
	entry, _ := appmult.Lookup("mul7u_rm6")
	m := entry.Mult
	fmt.Printf("multiplier: %s (%d-bit)\n", m.Name(), m.Bits())
	fmt.Printf("  example: 10 x 100 = %d (accurate: %d)\n", m.Mul(10, 100), 10*100)

	// 2. Measure its error metrics exhaustively (Eq. 2) and its
	// hardware cost on the built-in ASAP7-class library.
	fmt.Printf("  errors:  %v\n", errmetrics.Exhaustive(m.Bits(), m.Mul))
	hw := entry.Hardware(tech.ASAP7(), circuit.PowerOptions{Vectors: 2048, Seed: 1})
	fmt.Printf("  cost:    %.1f um^2, %.1f ps, %.2f uW (%s)\n", hw.AreaUM2, hw.DelayPS, hw.PowerUW, hw.Source)

	// 3. Build the two gradient estimators: the STE baseline and the
	// paper's difference-based tables at the selected half window size.
	steOp := nn.STEOp(m)
	diffOp := nn.DifferenceOp(m, entry.HWS)

	// 4. Retrain a LeNet on a small synthetic dataset with each
	// estimator and compare.
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: 10, Train: 240, Test: 120, HW: 12, Seed: 7,
	})
	sc := train.Scale{Width: 0.2, Epochs: 6, BatchSize: 24, LR0: 5e-3}
	for _, op := range []*nn.Op{steOp, diffOp} {
		model := models.LeNet(models.Config{
			Classes: 10, InputHW: 12, Width: sc.Width,
			Conv: models.ApproxConv(op), Seed: 7,
		})
		res := train.Run(model, trainSet, testSet, train.Config{
			Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: 7,
		})
		fmt.Printf("%-32s final top-1 %.2f%%\n", op.Label, res.FinalTop1())
	}
	// Output:
	// multiplier: mul7u_rm6 (7-bit)
	//   example: 10 x 100 = 960 (accurate: 1000)
	//   errors:  ER=93.8% NMED=0.49% MaxED=321
	//   cost:    11.7 um^2, 348.6 ps, 9.28 uW (netlist)
	// mul7u_rm6+mul7u/ste              final top-1 35.00%
	// mul7u_rm6+mul7u_rm6/diff(hws=2)  final top-1 37.50%
}

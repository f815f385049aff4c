package retrain_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/errmetrics"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/lut"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/mulsynth"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/optim"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/train"
)

// TestNetlistToTrainingPipeline walks the longest dependency chain in
// the repository: synthesize a multiplier netlist, run the ALS pass on
// it, extract its behaviour into a LUT-backed multiplier, build
// difference-based gradient tables, serialize and reload both LUTs,
// and finally train a CNN with the loaded artifacts.
func TestNetlistToTrainingPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	lib := tech.ASAP7()

	// Gate level: exact 5-bit multiplier, approximated by ALS.
	exact := mulsynth.BuildAccurate("m5", 5)
	synth, subs := mulsynth.ApproxSynth(exact, 5, lib, mulsynth.ALSOptions{
		NMEDBudget: 0.8, SampleVectors: 256, Seed: 2, MaxSubs: 8,
	})
	if len(subs) == 0 {
		t.Fatal("ALS made no progress")
	}
	if synth.Area(lib) >= exact.Area(lib) {
		t.Fatal("ALS did not shrink the netlist")
	}

	// The approximate netlist exports as structural Verilog for an
	// external tool chain.
	var vbuf bytes.Buffer
	if err := synth.WriteVerilog(&vbuf, "m5_als"); err != nil {
		t.Fatal(err)
	}
	if v := vbuf.String(); !strings.HasPrefix(v, "module m5_als(") || !strings.HasSuffix(v, "endmodule\n") {
		t.Fatalf("Verilog export is not one module:\n%s", v)
	}

	// Behaviour extraction + error measurement.
	m := appmult.FromNetlist("m5_als", 5, synth)
	em := errmetrics.Exhaustive(5, m.Mul)
	if em.NMEDPercent <= 0 {
		t.Fatalf("ALS result suspiciously exact: %v", em)
	}

	// Gradient tables, serialized and reloaded.
	tables := gradient.Difference(m.Name(), 5, 2, m.Mul)
	var gbuf, pbuf bytes.Buffer
	if err := lut.WriteTables(&gbuf, tables); err != nil {
		t.Fatal(err)
	}
	if err := lut.WriteProduct(&pbuf, m.Name(), 5, appmult.BuildLUT(m)); err != nil {
		t.Fatal(err)
	}
	loadedTables, err := lut.ReadTables(&gbuf)
	if err != nil {
		t.Fatal(err)
	}
	name, bits, product, err := lut.ReadProduct(&pbuf)
	if err != nil {
		t.Fatal(err)
	}
	loadedMult := appmult.NewLUTBacked(name, bits, product)

	// Training with the loaded artifacts.
	op := nn.NewOp(loadedMult, loadedTables)
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: 4, Train: 80, Test: 40, HW: 8, Seed: 9,
	})
	model := models.LeNet(models.Config{
		Classes: 4, InputHW: 8, Width: 0.2,
		Conv: models.ApproxConv(op), Seed: 9,
	})
	res := train.Run(model, trainSet, testSet, train.Config{
		Epochs: 5, BatchSize: 16, Seed: 9,
		Schedule: optim.Schedule{{UntilEpoch: 5, LR: 5e-3}},
	})
	if res.FinalLoss() >= res.TrainLoss[0] {
		t.Errorf("loss did not fall with ALS-derived multiplier: %.3f -> %.3f",
			res.TrainLoss[0], res.FinalLoss())
	}
}

// TestQATThenRewriteThenRetrain exercises the paper's Fig. 1 flow with
// the Approximate() rewrite: train a quantized reference, rewrite it
// in place with an AppMult, observe the accuracy drop, retrain with
// the difference gradient, observe recovery.
func TestQATThenRewriteThenRetrain(t *testing.T) {
	if testing.Short() {
		t.Skip("three training runs")
	}
	e, _ := appmult.Lookup("mul6u_rm4")
	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: 4, Train: 120, Test: 60, HW: 8, Seed: 21,
	})
	cfg := train.Config{
		Epochs: 6, BatchSize: 20, Seed: 21,
		Schedule: optim.Schedule{{UntilEpoch: 6, LR: 6e-3}},
	}

	// QAT reference with the accurate 6-bit multiplier.
	ref := models.LeNet(models.Config{
		Classes: 4, InputHW: 8, Width: 0.25,
		Conv: models.ApproxConv(nn.STEOp(appmult.NewAccurate(6))), Seed: 21,
	})
	refRes := train.Run(ref, trainSet, testSet, cfg)
	refAcc := refRes.FinalTop1()
	if refAcc <= 30 {
		t.Fatalf("reference failed to learn: %.1f%%", refAcc)
	}

	// Swap in the AppMult and retrain.
	approx := models.Approximate(ref, nn.DifferenceOp(e.Mult, e.HWS))
	retrained := train.Run(approx, trainSet, testSet, cfg)
	if retrained.FinalTop1() < refAcc-25 {
		t.Errorf("retraining failed to recover: ref %.1f%%, retrained %.1f%%",
			refAcc, retrained.FinalTop1())
	}
}

// TestCheckpointAcrossModelVariants saves a QAT model and loads it into
// an approximate twin built by factory — the file-based version of the
// CopyParams flow.
func TestCheckpointAcrossModelVariants(t *testing.T) {
	e, _ := appmult.Lookup("mul6u_rm4")
	cfg := models.Config{Classes: 4, InputHW: 8, Width: 0.25, Seed: 31}
	floatM := models.LeNet(cfg)
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, floatM); err != nil {
		t.Fatal(err)
	}
	cfgA := cfg
	cfgA.Conv = models.ApproxConv(nn.STEOp(e.Mult))
	approxM := models.LeNet(cfgA)
	if err := nn.LoadParams(&buf, approxM); err != nil {
		t.Fatal(err)
	}
	fp, ap := floatM.Params(), approxM.Params()
	for i := range fp {
		for j := range fp[i].Value.Data {
			if fp[i].Value.Data[j] != ap[i].Value.Data[j] {
				t.Fatalf("param %s not restored into approximate twin", fp[i].Name)
			}
		}
	}
}

// TestEveryRegistryMultiplierTrains runs one optimizer step with every
// Table I multiplier under both estimators — a smoke sweep ensuring no
// registry entry breaks LUT or gradient-table construction or the
// training kernels.
func TestEveryRegistryMultiplierTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps the registry")
	}
	trainSet, _ := data.Synthetic(data.SynthConfig{
		Classes: 4, Train: 20, Test: 4, HW: 8, Seed: 41,
	})
	batch := trainSet.Batches(10, 0)[0]
	for _, e := range appmult.Registry() {
		hws := e.HWS
		if hws == 0 {
			hws = 2 // accurate rows: any valid window
		}
		if hws > gradient.MaxHWS(e.Mult.Bits()) {
			hws = gradient.MaxHWS(e.Mult.Bits())
		}
		for _, op := range []*nn.Op{nn.STEOp(e.Mult), nn.DifferenceOp(e.Mult, hws)} {
			model := models.LeNet(models.Config{
				Classes: 4, InputHW: 8, Width: 0.15,
				Conv: models.ApproxConv(op), Seed: 41,
			})
			out := model.Forward(batch.X, true)
			loss, grad := nn.SoftmaxCrossEntropy(out, batch.Y)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("%s: non-finite loss %v", op.Label, loss)
			}
			model.Backward(grad)
			for _, p := range model.Params() {
				for _, g := range p.Grad.Data {
					if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) {
						t.Fatalf("%s: non-finite gradient in %s", op.Label, p.Name)
					}
				}
			}
		}
	}
}

// TestHardwareErrorTradeoffShape checks Table I's qualitative law on
// our synthesized data: within the masked 8-bit family, multipliers
// with more error (higher NMED) do not cost more power than the
// accurate multiplier, and the accurate one is the most expensive.
func TestHardwareErrorTradeoffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes several netlists")
	}
	lib := tech.ASAP7()
	opt := circuit.PowerOptions{Vectors: 512, Seed: 1}
	acc, _ := appmult.Lookup("mul8u_acc")
	accPower := acc.Hardware(lib, opt).PowerUW
	for _, name := range []string{"mul8u_syn1", "mul8u_2NDH", "mul8u_17C8", "mul8u_rm8"} {
		e, _ := appmult.Lookup(name)
		hw := e.Hardware(lib, opt)
		if hw.PowerUW >= accPower {
			t.Errorf("%s power %.2f uW above accurate %.2f uW", name, hw.PowerUW, accPower)
		}
		if hw.AreaUM2 >= acc.Hardware(lib, opt).AreaUM2 {
			t.Errorf("%s area not below accurate", name)
		}
	}
}

// TestFig3StoryEndToEnd verifies the full Section III narrative against
// the real registry multiplier: the raw row has zero gradient almost
// everywhere, smoothing removes the zeros, and the difference gradient
// integrates back to approximately the row's total rise.
func TestFig3StoryEndToEnd(t *testing.T) {
	e, _ := appmult.Lookup("mul7u_rm6")
	const wf = 10
	row := make([]uint32, 128)
	for x := range row {
		row[x] = e.Mult.Mul(wf, uint32(x))
	}
	// Raw stair: derivative zero on >60% of interior points.
	zeros := 0
	for x := 1; x < 127; x++ {
		if row[x+1] == row[x-1] {
			zeros++
		}
	}
	if zeros < 75 {
		t.Fatalf("expected a stair-like raw row, found %d flat points", zeros)
	}
	// Smoothed gradient: no zeros in the interior.
	grad := gradient.DifferenceRow(row, 4)
	for x := 5; x < 122; x++ {
		if grad[x] == 0 {
			t.Fatalf("zero gradient at interior X=%d after smoothing", x)
		}
	}
	// The gradient should integrate to roughly the total rise of the
	// function (a telescoping property of central differences).
	var sum float64
	for x := 5; x < 122; x++ {
		sum += grad[x]
	}
	rise := float64(row[123]) - float64(row[3])
	if math.Abs(sum-rise)/math.Max(rise, 1) > 0.15 {
		t.Errorf("gradient mass %.1f far from function rise %.1f", sum, rise)
	}
}

// Command ablate runs the design-choice ablations called out in
// DESIGN.md:
//
//   - smoothing: the paper's difference-based gradient (Eqs. 4-6)
//     versus the raw, unsmoothed central difference — Section III-A's
//     motivation for the moving average.
//   - hws: retraining accuracy across half window sizes, showing the
//     sensitivity the per-multiplier HWS selection addresses.
//   - boundary: Eq. (6) boundary handling versus clamping the interior
//     formula at the edges.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/report"
	"github.com/appmult/retrain/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	var (
		which = flag.String("which", "smoothing", "ablation: smoothing|hws|boundary|perchannel")
		mult  = flag.String("mult", "mul7u_rm6", "approximate multiplier name")
		scale = flag.String("scale", "tiny", "experiment scale: paper|reduced|small|tiny")
		seed  = flag.Int64("seed", 1, "experiment seed")
	)
	flag.Parse()

	e, ok := appmult.Lookup(*mult)
	if !ok {
		log.Fatalf("unknown multiplier %q", *mult)
	}
	sc, err := train.ScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}

	trainSet, testSet := data.Synthetic(data.SynthConfig{
		Classes: 10, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: *seed,
	})
	runWith := func(op *nn.Op) train.Result {
		model := models.LeNet(models.Config{
			Classes: 10, InputHW: sc.HW, Width: sc.Width,
			Conv: models.ApproxConv(op), Seed: *seed,
		})
		return train.Run(model, trainSet, testSet, train.Config{
			Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: *seed,
		})
	}

	switch *which {
	case "smoothing":
		t := report.NewTable(
			fmt.Sprintf("Ablation: smoothing (LeNet, %s, scale=%s)", *mult, *scale),
			"estimator", "final loss", "top1/%")
		for _, est := range []struct{ spec, label string }{
			{gradient.EstSTE, "STE"}, {gradient.EstRawDiff, "RawDiff"}, {gradient.EstSmoothDiff, "Ours"},
		} {
			log.Printf("running %s ...", est.label)
			op, err := train.OpForSpec(e, est.spec)
			if err != nil {
				log.Fatal(err)
			}
			r := runWith(op)
			t.AddRow(est.label, fmt.Sprintf("%.4f", r.FinalLoss()), fmt.Sprintf("%.2f", r.FinalTop1()))
		}
		t.WriteText(os.Stdout)

	case "hws":
		t := report.NewTable(
			fmt.Sprintf("Ablation: HWS sensitivity (LeNet, %s, scale=%s; paper selected %d)", *mult, *scale, e.HWS),
			"HWS", "final loss", "top1/%")
		for _, hws := range gradient.DefaultHWSCandidates {
			if hws > gradient.MaxHWS(e.Mult.Bits()) {
				continue
			}
			log.Printf("running HWS=%d ...", hws)
			r := runWith(nn.DifferenceOp(e.Mult, hws))
			t.AddRow(fmt.Sprint(hws), fmt.Sprintf("%.4f", r.FinalLoss()), fmt.Sprintf("%.2f", r.FinalTop1()))
		}
		t.WriteText(os.Stdout)

	case "boundary":
		// Eq. (6) boundaries vs. clamping the central difference.
		clamped := gradient.FromFunc(e.Mult.Name()+"/clamped", e.Mult.Bits(), clampedGrad(e.Mult, e.HWS))
		t := report.NewTable(
			fmt.Sprintf("Ablation: Eq. (6) boundary rule (LeNet, %s, scale=%s)", *mult, *scale),
			"boundary", "final loss", "top1/%")
		log.Print("running Eq.(6) boundaries ...")
		r1 := runWith(nn.DifferenceOp(e.Mult, e.HWS))
		t.AddRow("eq6", fmt.Sprintf("%.4f", r1.FinalLoss()), fmt.Sprintf("%.2f", r1.FinalTop1()))
		log.Print("running clamped boundaries ...")
		r2 := runWith(nn.NewOp(e.Mult, clamped))
		t.AddRow("clamp", fmt.Sprintf("%.4f", r2.FinalLoss()), fmt.Sprintf("%.2f", r2.FinalTop1()))
		t.WriteText(os.Stdout)

	case "perchannel":
		// Per-tensor (the paper's scheme) vs per-channel weight
		// quantization, same multiplier and difference gradient.
		t := report.NewTable(
			fmt.Sprintf("Ablation: weight quantization granularity (LeNet, %s, scale=%s)", *mult, *scale),
			"scheme", "final loss", "top1/%")
		op := nn.DifferenceOp(e.Mult, e.HWS)
		for _, pc := range []bool{false, true} {
			factory := models.ApproxConv(op)
			label := "per-tensor"
			if pc {
				factory = models.ApproxConvPerChannel(op)
				label = "per-channel"
			}
			log.Printf("running %s ...", label)
			model := models.LeNet(models.Config{
				Classes: 10, InputHW: sc.HW, Width: sc.Width, Conv: factory, Seed: *seed,
			})
			r := train.Run(model, trainSet, testSet, train.Config{
				Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(), Seed: *seed,
			})
			t.AddRow(label, fmt.Sprintf("%.4f", r.FinalLoss()), fmt.Sprintf("%.2f", r.FinalTop1()))
		}
		t.WriteText(os.Stdout)

	default:
		log.Fatalf("unknown ablation %q", *which)
	}
}

// clampedGrad builds a gradient that uses the interior difference
// formula everywhere, clamping boundary positions to the nearest
// interior value instead of applying Eq. (6).
func clampedGrad(m appmult.Multiplier, hws int) gradient.GradFunc {
	base := gradient.Difference(m.Name(), m.Bits(), hws, m.Mul)
	n := uint32(1)<<uint(m.Bits()) - 1
	lo := uint32(hws + 1)
	hi := n - 1 - uint32(hws)
	clamp := func(v uint32) uint32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	return func(w, x uint32) (float64, float64) {
		dw, _ := base.At(clamp(w), x)
		_, dx := base.At(w, clamp(x))
		return float64(dw), float64(dx)
	}
}

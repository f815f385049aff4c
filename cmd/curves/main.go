// Command curves reproduces the paper's Fig. 6: top-5 test accuracy
// versus epoch for ResNet34 and ResNet50 on the CIFAR-100 stand-in,
// retraining with the 6-bit truncated multiplier mul6u_rm4 under STE
// and the difference-based gradient.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/appmult/retrain/internal/report"
	"github.com/appmult/retrain/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("curves: ")
	var (
		mult    = flag.String("mult", "mul6u_rm4", "approximate multiplier name")
		models  = flag.String("models", "resnet34,resnet50", "comma-separated model kinds")
		classes = flag.Int("classes", 100, "number of classes (100 = CIFAR-100 stand-in)")
		scale   = flag.String("scale", "reduced", "experiment scale: paper|reduced|small|tiny")
		seed    = flag.Int64("seed", 1, "experiment seed")
		trainN  = flag.Int("train", 0, "override training-set size (0 = scale default)")
		testN   = flag.Int("test", 0, "override test-set size")
		epochs  = flag.Int("epochs", 0, "override epoch count")
		width   = flag.Float64("width", 0, "override model width multiplier")
		hw      = flag.Int("hw", 0, "override input resolution")
	)
	flag.Parse()

	sc, err := train.ScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}
	if *trainN > 0 {
		sc.Train = *trainN
	}
	if *testN > 0 {
		sc.Test = *testN
	}
	if *epochs > 0 {
		sc.Epochs = *epochs
	}
	if *width > 0 {
		sc.Width = *width
	}
	if *hw > 0 {
		sc.HW = *hw
	}

	kinds := splitList(*models)
	log.Printf("running %v ...", kinds)
	for _, r := range train.TableII([]string{*mult}, kinds, *classes, sc, *seed, nil, train.CompareOptions{}) {
		s := report.NewSeries(
			fmt.Sprintf("Fig. 6 reproduction: %s top-5 accuracy vs epoch (%s, %d classes, scale=%s)",
				r.Model, *mult, *classes, *scale),
			"epoch", "STE top5/%", "ours top5/%")
		for i := range r.STE.TestTop5 {
			s.Add(float64(i+1), r.STE.TestTop5[i], r.Ours.TestTop5[i])
		}
		s.WriteText(os.Stdout)
		fmt.Printf("final: STE %.2f%%  ours %.2f%%\n\n", r.STE.FinalTop5(), r.Ours.FinalTop5())
	}
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

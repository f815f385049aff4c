// Command tradeoff reproduces the paper's Fig. 5: ResNet18 accuracy
// after retraining versus normalized multiplier power, for the 7-bit
// and 8-bit approximate multipliers, comparing the STE baseline and
// the difference-based gradient. Power is normalized to the 8-bit
// accurate multiplier, exactly as in the paper.
//
// The full figure retrains 14 multipliers twice; at the default
// reduced scale this is CPU-hours. Use -bits to restrict to one panel
// or -mults for a subset.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/report"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/train"
)

var panelMults = map[int][]string{
	7: {"mul7u_06Q", "mul7u_073", "mul7u_rm6", "mul7u_syn1", "mul7u_syn2", "mul7u_081", "mul7u_08E"},
	8: {"mul8u_syn1", "mul8u_syn2", "mul8u_2NDH", "mul8u_17C8", "mul8u_1DMU", "mul8u_17R6", "mul8u_rm8"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tradeoff: ")
	var (
		bits  = flag.Int("bits", 7, "panel: 7 (Fig. 5a) or 8 (Fig. 5b); 0 = both")
		mults = flag.String("mults", "", "comma-separated multiplier subset (overrides -bits)")
		scale = flag.String("scale", "reduced", "experiment scale: paper|reduced|small|tiny")
		seed  = flag.Int64("seed", 1, "experiment seed")
	)
	flag.Parse()

	var names []string
	switch {
	case *mults != "":
		names = strings.Split(*mults, ",")
	case *bits == 0:
		names = append(append([]string{}, panelMults[7]...), panelMults[8]...)
	default:
		var ok bool
		names, ok = panelMults[*bits]
		if !ok {
			log.Fatalf("no panel for %d bits", *bits)
		}
	}

	sc, err := train.ScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}

	lib := tech.ASAP7()
	popt := circuit.PowerOptions{Vectors: 2048, Seed: 1}
	acc8, _ := appmult.Lookup("mul8u_acc")
	norm := acc8.Hardware(lib, popt).PowerUW

	t := report.NewTable(
		fmt.Sprintf("Fig. 5 reproduction: ResNet18 accuracy vs normalized power (scale=%s)", *scale),
		"multiplier", "norm.power", "STE acc/%", "ours acc/%", "ref acc/%")
	for i, raw := range names {
		names[i] = strings.TrimSpace(raw)
		if _, ok := appmult.Lookup(names[i]); !ok {
			log.Fatalf("unknown multiplier %q", names[i])
		}
	}
	log.Printf("running %v ...", names)
	for _, r := range train.TableII(names, []string{"resnet18"}, 10, sc, *seed, nil, train.CompareOptions{}) {
		e, _ := appmult.Lookup(r.Multiplier)
		hw := e.Hardware(lib, popt)
		t.AddRow(r.Multiplier,
			fmt.Sprintf("%.2f", hw.PowerUW/norm),
			fmt.Sprintf("%.2f", r.STE.FinalTop1()),
			fmt.Sprintf("%.2f", r.Ours.FinalTop1()),
			fmt.Sprintf("%.2f", r.RefTop1))
	}
	t.WriteText(os.Stdout)
	fmt.Println("\nreference lines: accurate-multiplier QAT accuracy per bit width (the paper's red lines).")
}

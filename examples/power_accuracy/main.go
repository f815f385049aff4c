// Power/accuracy exploration: the Fig. 5 workflow as a library user
// would script it — characterize a set of candidate multipliers,
// retrain a model with each, and print the accuracy-versus-power
// frontier to pick an operating point.
//
//	go run ./examples/power_accuracy
package main

import (
	"fmt"
	"log"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/report"
	"github.com/appmult/retrain/internal/tech"
	"github.com/appmult/retrain/internal/train"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("power_accuracy: ")

	// Candidates: the 6-bit truncated multiplier plus two 7-bit points
	// with different error/power trade-offs (a subset keeps this
	// example fast; go run ./cmd/paper -run fig5_7bit sweeps the 7-bit panel).
	candidates := []string{"mul6u_rm4", "mul7u_06Q", "mul7u_rm6"}

	lib := tech.ASAP7()
	popt := circuit.PowerOptions{Vectors: 2048, Seed: 1}
	acc8, _ := appmult.Lookup("mul8u_acc")
	norm := acc8.Hardware(lib, popt).PowerUW

	sc := train.Scale{HW: 10, Width: 0.2, Train: 400, Test: 100, Epochs: 7, BatchSize: 20, LR0: 6e-3}
	t := report.NewTable("accuracy vs normalized power (LeNet, synthetic CIFAR-10 stand-in)",
		"multiplier", "norm.power", "ref acc/%", "retrained acc/%", "acc drop")
	for _, name := range candidates {
		e, ok := appmult.Lookup(name)
		if !ok {
			log.Fatalf("unknown multiplier %q", name)
		}
		log.Printf("retraining with %s ...", name)
		r := train.TableII([]string{name}, []string{"lenet"}, 10, sc, 13, nil, train.CompareOptions{})[0]
		hw := e.Hardware(lib, popt)
		t.AddRow(name,
			fmt.Sprintf("%.2f", hw.PowerUW/norm),
			fmt.Sprintf("%.1f", r.RefTop1),
			fmt.Sprintf("%.1f", r.Ours.FinalTop1()),
			fmt.Sprintf("%+.1f", r.Ours.FinalTop1()-r.RefTop1))
	}
	t.WriteText(os.Stdout)
	fmt.Println("\npick the lowest-power row whose accuracy delta is acceptable;")
	fmt.Println("the paper's Fig. 5 plots exactly this frontier for ResNet18.")
	fmt.Println("(at this demo scale the QAT reference is as undertrained as the")
	fmt.Println("retrained models, so retraining often lands ABOVE it; at paper")
	fmt.Println("scale the reference saturates and the deltas turn negative.)")
}

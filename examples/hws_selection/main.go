// HWS selection: reproduce the paper's Section V-A protocol for
// choosing the half window size of the difference-based gradient — try
// each candidate, train a small LeNet for a few epochs, keep the HWS
// with the lowest final training loss — and visualize why the choice
// matters by printing a gradient row at two different window sizes.
//
//	go run ./examples/hws_selection
package main

import (
	"fmt"
	"log"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/gradient"
	"github.com/appmult/retrain/internal/train"
)

func main() {
	log.SetFlags(0)
	entry, ok := appmult.Lookup("mul6u_rm4")
	if !ok {
		log.Fatal("registry missing mul6u_rm4")
	}
	m := entry.Mult

	// Why HWS matters: compare the gradient row at Wf=5 under a narrow
	// and a wide window. Narrow windows keep stair artifacts; wide
	// windows oversmooth toward the STE constant.
	row := make([]uint32, 64)
	for x := range row {
		row[x] = m.Mul(5, uint32(x))
	}
	narrow := gradient.DifferenceRow(row, 1)
	wide := gradient.DifferenceRow(row, 16)
	fmt.Println("gradient of AM(5, X) for X = 16..24 (STE would be constant 5):")
	fmt.Printf("  %-8s %-10s %-10s\n", "X", "HWS=1", "HWS=16")
	for x := 16; x <= 24; x++ {
		fmt.Printf("  %-8d %-10.3f %-10.3f\n", x, narrow[x], wide[x])
	}

	// The selection protocol: 5 epochs of LeNet per candidate, pick the
	// minimum training loss.
	sc := train.Scale{HW: 8, Width: 0.15, Train: 160, Test: 80, Epochs: 5, BatchSize: 20, LR0: 6e-3}
	cells := train.SweepEstimators(m, nil, []int{1, 2, 4, 8, 16}, 10, sc, 11, nil)
	best := train.BestCell(cells)

	fmt.Printf("\nHWS selection for %s (LeNet, %d epochs per candidate):\n", m.Name(), sc.Epochs)
	for _, c := range cells {
		marker := ""
		if c.HWS == best.HWS {
			marker = "  <== selected"
		}
		fmt.Printf("  HWS %2d: final loss %.4f%s\n", c.HWS, c.Loss, marker)
	}
	fmt.Printf("\nselected HWS = %d; the paper's Table I selects %d for this multiplier.\n", best.HWS, entry.HWS)
}

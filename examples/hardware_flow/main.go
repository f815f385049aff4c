// Hardware flow: the EDA-facing half of the library in one script —
// synthesize a multiplier netlist, rank its gates by stuck-at fault
// criticality, approximate it, and export structural Verilog for a
// real tool chain.
//
//	go run ./examples/hardware_flow
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/errmetrics"
	"github.com/appmult/retrain/internal/mulsynth"
	"github.com/appmult/retrain/internal/tech"
)

func main() {
	log.SetFlags(0)
	lib := tech.ASAP7()
	bits := 5

	// Synthesize the exact multiplier and characterize it.
	exact := mulsynth.BuildAccurate("mul5u", bits)
	rep := exact.Analyze(lib, circuit.PowerOptions{Vectors: 2048, Seed: 1})
	fmt.Printf("exact %d-bit multiplier: %d gates, %.1f um^2, %.0f ps, %.2f uW\n",
		bits, rep.Gates, rep.AreaUM2, rep.DelayPS, rep.PowerUW)

	// Rank gates by the damage a stuck-at fault would do: the cheap end
	// of this ranking is what approximate synthesis removes first.
	impacts := mulsynth.FaultSensitivity(exact, bits, 1024, 1)
	sort.Slice(impacts, func(i, j int) bool { return impacts[i].NMEDPercent < impacts[j].NMEDPercent })
	fmt.Println("\nstuck-at criticality (cheapest and costliest three gates):")
	for _, fi := range impacts[:3] {
		fmt.Printf("  gate %3d stuck-at-%d -> NMED %.3f%%\n", fi.Gate, fi.StuckAt, fi.NMEDPercent)
	}
	for _, fi := range impacts[len(impacts)-3:] {
		fmt.Printf("  gate %3d stuck-at-%d -> NMED %.3f%%\n", fi.Gate, fi.StuckAt, fi.NMEDPercent)
	}

	// Approximate under a budget and re-characterize.
	synth, subs := mulsynth.ApproxSynth(exact, bits, lib, mulsynth.ALSOptions{
		NMEDBudget: 0.4, SampleVectors: 512, Seed: 2, MaxSubs: 10,
	})
	srep := synth.Analyze(lib, circuit.PowerOptions{Vectors: 2048, Seed: 1})
	m := appmult.FromNetlist("mul5u_als", bits, synth)
	fmt.Printf("\nafter ALS (%d substitutions): %d gates, %.1f um^2, %.2f uW, %v\n",
		len(subs), srep.Gates, srep.AreaUM2, srep.PowerUW,
		errmetrics.Exhaustive(bits, m.Mul))

	// Export the approximate netlist as structural Verilog.
	path := "mul5u_als.v"
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := synth.WriteVerilog(f, "mul5u_als"); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstructural Verilog written to %s\n", path)

}

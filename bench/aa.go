package main

import (
	"fmt"
	"math"
	"os"
	"strings"
)

// exactOn reports whether the metric must repeat exactly for the same
// seed on the workload. Kernel-dispatch and pool counts are exact per
// training step; on the serving workloads they depend on how requests
// happened to share batches.
func (d metricDef) exactOn(workload string) bool {
	if !d.Exact {
		return false
	}
	if strings.HasPrefix(d.Name, "nn.dispatch.") || strings.HasPrefix(d.Name, "tensor.pool_") {
		return strings.HasPrefix(workload, "retrain_")
	}
	return true
}

// aaMain is the A/A self-check: two interleaved sets (A B A B ...) of n
// full runs of this same binary. For every workload and end-to-end
// metric it prints both medians, their gap, each set's quartiles and
// the bound, and it fails when a gap exceeds its bound — the bounds in
// BENCHMARK.json are only as good as this table says. The first run of
// each set is also traced, and the exact per-layer counts of the two
// must agree.
func aaMain(o options, n int) int {
	if n < 3 {
		fatalf("-aa needs N >= 3 runs per set, got %d", n)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	var counts [2]map[key]float64
	code := 0
	for i := 0; i < n; i++ {
		for s := 0; s < 2; s++ {
			for _, w := range workloads {
				wo := o
				wo.workload, wo.trace = w.name, 0
				res := runOne(wo)
				fmt.Printf("set %c run %d %s: correct=%v\n", 'A'+s, i+1, w.name, res.result.Correct)
				if !res.result.Correct {
					printRun(wo, res)
					code = 1
				}
				for _, d := range endToEnd {
					k := key{w.name, d.Name}
					sets[s][k] = append(sets[s][k], res.result.Metrics[d.Name].Value)
				}
				if i > 0 {
					continue
				}
				wo.trace = 1
				res = runOne(wo)
				if !res.result.Correct {
					printRun(wo, res)
					code = 1
				}
				if counts[s] == nil {
					counts[s] = map[key]float64{}
				}
				for _, d := range perLayer {
					if d.exactOn(w.name) {
						counts[s][key{w.name, d.Name}] = res.result.Metrics[d.Name].Value
					}
				}
			}
		}
	}

	fmt.Printf("\n%-30s %-16s %12s %12s %8s %8s  %-27s %-27s\n", "workload", "metric",
		"median A", "median B", "gap", "bound", "A q1..q3", "B q1..q3")
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a1, am, a3 := quartiles(sets[0][k])
			b1, bm, b3 := quartiles(sets[1][k])
			gap := 0.0
			if am != 0 {
				gap = math.Abs(bm-am) / math.Abs(am)
			}
			verdict := ""
			if gap > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-30s %-16s %12.6g %12.6g %7.2f%% %7.2f%%  %-27s %-27s%s\n", w.name, d.Name, am, bm,
				100*gap, 100*d.Bound, fmt.Sprintf("%.6g..%.6g", a1, a3), fmt.Sprintf("%.6g..%.6g", b1, b3), verdict)
		}
	}
	for k, a := range counts[0] {
		if b := counts[1][k]; a != b {
			fmt.Printf("%-30s %-16s exact count differs between sets: %v vs %v\n", k.workload, k.metric, a, b)
			code = 1
		}
	}
	if code != 0 {
		fmt.Fprintln(os.Stderr, "bench: A/A self-check failed")
	}
	return code
}

// Command bench is the repository's end-to-end benchmark: five seeded
// workloads (three retraining topologies, HTTP serving, a cached fleet)
// measured with interference-robust statistics, each verified, with a
// per-layer trace. BENCHMARK.json at the repository root describes it
// to the benchmark driver; README.md in this directory explains every
// metric.
//
//	bash bench/run.sh                                # every workload, both modes
//	bash bench/run.sh -workload serve_http_lenet -seed 3 -seconds 12 -trace 0
//	bash bench/run.sh -quick                         # 1/20 op counts
//	bash bench/run.sh -aa 3                          # A/A self-check of the bounds
//
// Each workload runs in a child process (a re-execution of this binary)
// so set-up is cold, peak RSS is per workload, and a crash of the code
// under test becomes failed ops in a complete report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workload is one entry of the benchmark.
type workload struct {
	name string
	why  string
	run  func(rc *runCtx) (*report, error)
}

var retrainSpecs = []trainSpec{
	{name: "retrain_vgg11_smoothdiff", kind: "vgg11", estimator: "smoothdiff", topo: topoSolo, epochsPerSecond: 0.85, setups: 7},
	{name: "retrain_resnet18_ste_shards2", kind: "resnet18", estimator: "ste", topo: topoShards2, epochsPerSecond: 0.25, setups: 7},
	{name: "retrain_lenet_dist2", kind: "lenet", estimator: "smoothdiff", topo: topoDist2, epochsPerSecond: 3, setups: 7},
}

var httpSpecs = []httpSpec{
	// One serve set-up is ~5 ms, unmeasurable alone: 25 of them.
	{name: "serve_http_lenet", kind: "lenet", clients: 1, opsPerSecond: 300, setups: 25},
	{name: "fleet_http_vgg11_cache50", kind: "vgg11", fleet: true, clients: 2, opsPerSecond: 700, setups: 7},
}

var workloads = []workload{
	{retrainSpecs[0].name, "the paper's headline path: vgg11 retraining with the smoothed-difference estimator on one replica; nn does ~95% of the work (forward arith, backward fused gather tier, BN)",
		func(rc *runCtx) (*report, error) { return runTrain(retrainSpecs[0], rc) }},
	{retrainSpecs[1].name, "the same nn layer used differently: resnet18, STE (backward affine tier), residual adds and sync-BN over two ShardedStep replicas on two cores",
		func(rc *runCtx) (*report, error) { return runTrain(retrainSpecs[1], rc) }},
	{retrainSpecs[2].name, "BN-free lenet over dist.Coordinator and two loopback workers: little compute per step (backward small tier), so framing, slice gather and optimizer/Broadcast weigh most",
		func(rc *runCtx) (*report, error) { return runTrain(retrainSpecs[2], rc) }},
	{httpSpecs[0].name, "lenet served from a TRCKPv1 checkpoint over HTTP, one closed-loop connection: inference is ~0.3 ms, so HTTP + JSON + Batcher queueing is most of the op",
		func(rc *runCtx) (*report, error) { return runHTTPWorkload(httpSpecs[0], rc) }},
	{httpSpecs[1].name, "router + two workers hosting vgg11, 50% seeded repeats: hits are pure fleet (canonicalize, cache, HTTP), misses cross FLTFRv1 frames into serve.Batcher and nn's Infer path",
		func(rc *runCtx) (*report, error) { return runHTTPWorkload(httpSpecs[1], rc) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command-line settings shared by every mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	outDir   string
}

// quickDivisor is what -quick divides every op count by.
const quickDivisor = 20

func (o options) runCtx() *runCtx {
	rc := &runCtx{seed: o.seed, seconds: o.seconds, trace: o.trace != 0, outDir: o.outDir, prog: &progress{}}
	if o.quick {
		rc.seconds = o.seconds / quickDivisor
		rc.setups = 2
	}
	return rc
}

func (rc *runCtx) setupCount(def int) int {
	if rc.setups > 0 {
		return rc.setups
	}
	return def
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all of them, in both trace modes)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length the measured phase is sized for")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.quick, "quick", false, "1/20 op counts and two set-ups, for smoke tests")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace files, result.json and scratch files")
	aa := flag.Int("aa", 0, "A/A self-check: two interleaved sets of N >= 3 full runs of this binary")
	child := flag.Bool("child", false, "internal: run the workload in this process and report on fd 3")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	switch {
	case *child:
		os.Exit(childMain(o))
	case *aa > 0:
		os.Exit(aaMain(o, *aa))
	case o.workload != "":
		if _, ok := findWorkload(o.workload); !ok {
			fatalf("unknown workload %q (know %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		res := runOne(o)
		printRun(o, res)
		emit(res.result)
	default:
		os.Exit(allMain(o))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// emit prints the driver's result object as the last line of stdout.
func emit(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Printf("%s\n", b)
}

func defsFor(trace int) []metricDef {
	if trace != 0 {
		return perLayer
	}
	return endToEnd
}

// printRun prints every metric of one run by name with its unit, then
// what the verification found.
func printRun(o options, res supervised) {
	printMetrics(os.Stdout, o.workload, defsFor(o.trace), res.result.Metrics)
	fmt.Printf("%-30s ops planned %d, ok %d, failed %d; GOMAXPROCS=%d GOGC=%q nproc=%d\n", o.workload,
		res.result.Attempted, res.result.Attempted-res.result.Failed, res.result.Failed,
		runtime.GOMAXPROCS(0), os.Getenv("GOGC"), runtime.NumCPU())
	for k, v := range res.info {
		fmt.Printf("%-30s %s = %s\n", o.workload, k, v)
	}
	for _, n := range res.notes {
		fmt.Printf("%-30s VERIFY: %s\n", o.workload, n)
	}
	if res.crash != "" {
		fmt.Printf("%-30s CHILD FAILED: %s\n", o.workload, res.crash)
		for _, l := range res.stderrTail {
			fmt.Printf("%-30s   | %s\n", o.workload, l)
		}
	}
}

// allMain runs every workload in both modes, prints every metric and
// writes bench/out/result.json. It exits non-zero when any run is not
// correct.
func allMain(o options) int {
	type entry struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		result
	}
	var all []entry
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			wo := o
			wo.workload, wo.trace = w.name, trace
			res := runOne(wo)
			printRun(wo, res)
			all = append(all, entry{w.name, trace, res.result})
			if !res.result.Correct {
				code = 1
			}
		}
	}
	doc := struct {
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Quick    bool    `json:"quick"`
		MaxProcs int     `json:"maxprocs"`
		GOGC     string  `json:"gogc"`
		Runs     []entry `json:"runs"`
	}{o.seed, o.seconds, o.quick, runtime.GOMAXPROCS(0), os.Getenv("GOGC"), all}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	path := filepath.Join(o.outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("wrote", path)
	return code
}

// manifestJSON renders BENCHMARK.json from the metric and workload
// tables.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always encode
	}
	return append(b, '\n')
}

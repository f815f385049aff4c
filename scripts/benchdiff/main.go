// Command benchdiff compares two BENCH_kernels.json recordings (see
// cmd/benchkernels) and exits nonzero when any benchmark regressed
// beyond the tolerance — the loud-failure half of the benchmark
// harness. `make bench` runs it blocking against the committed
// baseline; `make verify` runs it as a non-blocking report.
//
// Usage:
//
//	benchdiff [-tol 1.3] [-check-names] old.json new.json
//
// By default a benchmark present in only one file is reported but never
// fails the diff, so the harness survives adding or retiring
// benchmarks. With -check-names any name-set mismatch is fatal: that is
// the CI mode that catches a benchmark added (or retired) in
// cmd/benchkernels without the committed BENCH_kernels.json being
// regenerated alongside it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

type record struct {
	Benchmarks map[string]result `json:"benchmarks"`
}

func load(path string) (record, error) {
	var r record
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func main() {
	tol := flag.Float64("tol", 1.3, "fail when new ns/op exceeds old by more than this factor")
	checkNames := flag.Bool("check-names", false,
		"fail when the baseline and new recordings do not cover the same benchmark names")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 1.3] [-check-names] old.json new.json")
		os.Exit(2)
	}
	if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1), *tol, *checkNames); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// compare diffs the recording at newPath against the baseline at
// oldPath, one line per benchmark to w, and returns an error when a
// benchmark's ns/op grew beyond tol, when checkNames is set and the two
// name sets differ, or when a file cannot be read. A missing baseline is
// not an error: there is nothing to regress against, so the harness's
// promotion step installs the new recording as the baseline.
func compare(w io.Writer, oldPath, newPath string, tol float64, checkNames bool) error {
	newRec, err := load(newPath)
	if err != nil {
		return err
	}
	oldRec, err := load(oldPath)
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "benchdiff: no baseline at %s, promoting %d benchmark(s) from %s\n",
			oldPath, len(newRec.Benchmarks), newPath)
		return nil
	}
	if err != nil {
		return err
	}

	names := make([]string, 0, len(oldRec.Benchmarks))
	for name := range oldRec.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	regressed, mismatched := 0, 0
	for _, name := range names {
		o := oldRec.Benchmarks[name]
		n, ok := newRec.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-40s retired (only in %s)\n", name, oldPath)
			mismatched++
			continue
		}
		ratio := n.NsOp / o.NsOp
		status := "ok"
		if ratio > tol {
			status = "REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "%-40s %12.0f -> %12.0f ns/op  %5.2fx  %s\n", name, o.NsOp, n.NsOp, ratio, status)
		if n.AllocsOp > o.AllocsOp {
			fmt.Fprintf(w, "%-40s allocs/op grew %d -> %d\n", name, o.AllocsOp, n.AllocsOp)
		}
	}
	for name := range newRec.Benchmarks {
		if _, ok := oldRec.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "%-40s new (no baseline)\n", name)
			mismatched++
		}
	}
	if checkNames && mismatched > 0 {
		return fmt.Errorf("%d benchmark name(s) differ between %s and %s — regenerate the baseline with `make bench`",
			mismatched, oldPath, newPath)
	}
	if regressed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.2fx", regressed, tol)
	}
	fmt.Fprintln(w, "benchdiff: no regressions")
	return nil
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := map[string]result{"A": {NsOp: 100}, "B": {NsOp: 200, AllocsOp: 1}}
	for _, tc := range []struct {
		name       string
		old, new   map[string]result // old nil: no baseline file
		tol        float64
		checkNames bool
		wantErr    string // "" for success
		wantOut    string
	}{
		{name: "within tolerance", old: base, new: map[string]result{"A": {NsOp: 129}, "B": {NsOp: 150, AllocsOp: 1}},
			tol: 1.3, wantOut: "benchdiff: no regressions"},
		{name: "slowdown past tol", old: base, new: map[string]result{"A": {NsOp: 131}, "B": {NsOp: 200, AllocsOp: 1}},
			tol: 1.3, wantErr: "1 benchmark(s) regressed beyond 1.30x", wantOut: "REGRESSION"},
		{name: "names differ, reported", old: base, new: map[string]result{"A": {NsOp: 100}, "C": {NsOp: 1}},
			tol: 1.3, wantOut: "new (no baseline)"},
		{name: "names differ, -check-names", old: base, new: map[string]result{"A": {NsOp: 100}, "C": {NsOp: 1}},
			tol: 1e9, checkNames: true, wantErr: "2 benchmark name(s) differ", wantOut: "retired (only in"},
		{name: "same names, -check-names", old: base, new: base, tol: 1e9, checkNames: true,
			wantOut: "benchdiff: no regressions"},
		{name: "missing baseline promotes", new: base, tol: 1.3, checkNames: true,
			wantOut: "no baseline at"},
		{name: "allocs growth reported", old: base, new: map[string]result{"A": {NsOp: 100, AllocsOp: 3}, "B": {NsOp: 200, AllocsOp: 1}},
			tol: 1.3, wantOut: "allocs/op grew 0 -> 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string, b map[string]result) string {
				path := filepath.Join(dir, name)
				if b == nil {
					return path
				}
				buf, err := json.Marshal(record{Benchmarks: b})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			oldPath, newPath := write("old.json", tc.old), write("new.json", tc.new)
			var out strings.Builder
			err := compare(&out, oldPath, newPath, tc.tol, tc.checkNames)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("compare: %v, want success", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("compare: %v, want an error containing %q", err, tc.wantErr)
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A row whose body fails stops the recording with an error naming the
// row, and nothing is written. testing.Benchmark reports such a row as
// N = 0, whose ns/op would be NaN, which json.MarshalIndent rejects
// without naming the row.
func TestRunNamesFailedRow(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"Row_Fatal", func(b *testing.B) { b.Fatal("boom") }},
		{"Row_Panic", func(b *testing.B) { panic("boom") }},
	} {
		out := filepath.Join(t.TempDir(), "out.json")
		rec := record{Benchmarks: map[string]result{}, Paths: map[string]string{}, Speedups: map[string]float64{}}
		err := run(&rec, []group{one(tc.name, func() func(b *testing.B) { return tc.fn })}, nil, out)
		if want := "row " + tc.name + " failed"; err == nil || err.Error() != want {
			t.Errorf("%s: run returned %v, want %q", tc.name, err, want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: run wrote %s after a failed row (stat: %v)", tc.name, out, err)
		}
	}
}

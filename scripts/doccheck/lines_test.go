package main

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestLineRefs resolves valid and dangling references to lines of Go
// files against a small tree: a full path, a unique bare name with a
// range and with a list, a line past the end, a missing file and an
// ambiguous bare name. In Go source only the comments count, so a
// reference in a string literal is not read. The references are
// assembled from pieces, so doccheck's own run over this file does not
// see them.
func TestLineRefs(t *testing.T) {
	root := t.TempDir()
	for path, text := range map[string]string{
		"a/one.go":     "package a\n\nvar X int\n",   // 3 lines
		"a/main.go":    "package main\n",             // 1 line
		"b/main.go":    "package main\n",             // 1 line
		"b/two.go":     "package b\n\n\n\nvar Y int", // 5 lines, no final newline
		".cache/x.go":  "package x\n",                // skipped: a dot directory
		"b/notes.txt":  "one.go:1\n",                 // not Go: not indexed
		"c/three.go.x": "package c\n",
	} {
		p := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := goFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"a/one.go": 3, "a/main.go": 1, "b/main.go": 1, "b/two.go": 5}; !maps.Equal(files, want) {
		t.Fatalf("goFiles = %v, want %v", files, want)
	}
	one, two, main := "one"+".go", "two"+".go", "main"+".go"
	md := "See a/" + one + ":3 and `" + two + ":2–5`, " + two + ":1,4.\n" +
		"Then a/" + one + ":4 and " + two + ":0-2,\n" +
		"and missing" + ".go:1 and " + main + ":1.\n"
	goSrc := "package x\n\n// Read " + two + ":6.\nvar s = \"" + two + ":9\"\n"
	got := append(checkLineRefs("doc.md", md, files), checkLineRefs("x.go", goSrc, files)...)
	want := []string{
		"doc.md:2: a/" + one + ":4 is outside its 3 lines",
		"doc.md:2: " + two + ":0 is outside its 5 lines",
		"doc.md:3: missing" + ".go does not exist",
		"doc.md:3: " + main + " is ambiguous: 2 files end in it",
		"x.go:3: " + two + ":6 is outside its 5 lines",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%q\nwant\n%q", got, want)
	}
}

package main

import (
	"slices"
	"testing"
)

const testRoadmap = `# ROADMAP

## Open items

1. Findings are numbered too, but carry no bold title.

1. **Reproduce the table.** Body text that mentions item 4(a) in
   passing.
   (a) *Start from the reference.* Sub-item.
   (c) Another sub-item.
2. **Thaw the bench.** No sub-items.

## Recent

3. **Not an item.** Past the section.
`

// TestRoadmapRefs resolves one valid and one dangling reference of each
// form — "ROADMAP item N(x)" wrapped across Go comment lines, and
// "ROADMAP N(x)" in Markdown — against a small ROADMAP: a sub-item
// counts only where its item marks it at the start of a line, and the
// items are those of the section the first one opens.
func TestRoadmapRefs(t *testing.T) {
	items := roadmapItems(testRoadmap)
	if len(items) != 2 || !items[1]["a"] || !items[1]["c"] || items[1]["b"] || len(items[2]) != 0 {
		t.Fatalf("items = %v, want 1: {a, c} and 2: {}", items)
	}
	goSrc := "package x\n\n// The fix is ROADMAP\n// item 1(a). The next one is ROADMAP item 1(b).\nvar X int\n"
	md := "See ROADMAP 2 and ROADMAP 1(c).\nAlso ROADMAP item 3.\n"
	got := append(checkRoadmapRefs("x.go", goSrc, items), checkRoadmapRefs("doc.md", md, items)...)
	want := []string{
		"x.go:4: ROADMAP item 1(b) does not exist",
		"doc.md:2: ROADMAP item 3 does not exist",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%q\nwant\n%q", got, want)
	}
}

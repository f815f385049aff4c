package main

import (
	"slices"
	"testing"
)

// testDesign is a small DESIGN.md: section 3 marks (b) and (c′), the
// bold line in section 2 is no marker (it does not open a line), and
// section 4 marks nothing.
const testDesign = `# DESIGN

## 2. Packages

Text with **(a) inline** bold.

## 3. Data flow

**(b) Forward.** Body.

**(c′) One slice engine.** Body.

## 4. Observability
`

// TestDesignRefs resolves valid and dangling references of each form —
// a file name, a section number and a chain of sub-sections wrapped
// across Go comment lines; the bare name with a number, with a spaced
// sub-section, and with a word in place of the number in Markdown —
// against testDesign. The references are assembled from pieces, so
// doccheck's own run over this file does not see them.
func TestDesignRefs(t *testing.T) {
	secs := designSections(testDesign)
	if len(secs) != 3 || len(secs[2]) != 0 || !secs[3]["b"] || !secs[3]["c′"] || len(secs[3]) != 2 || len(secs[4]) != 0 {
		t.Fatalf("sections = %v, want 2: {}, 3: {b, c′} and 4: {}", secs)
	}
	design := "DESIGN"
	goSrc := "package x\n\n// The forward is " + design + ".md\n// §3(b)/(c′); the backward " + design + ".md §3(b)/(c).\nvar X int\n"
	md := "See " + design + " §4 and " + design + " §3 (b).\nAlso " + design + ".md §5 and " + design + ".md §data-flow.\n"
	got := append(checkDesignRefs("x.go", goSrc, secs), checkDesignRefs("doc.md", md, secs)...)
	want := []string{
		"x.go:4: " + design + ".md §3(c) does not exist",
		"doc.md:2: " + design + ".md §5 does not exist",
		"doc.md:2: " + design + ".md §data-flow does not exist",
	}
	if !slices.Equal(got, want) {
		t.Errorf("problems:\n%q\nwant\n%q", got, want)
	}
}

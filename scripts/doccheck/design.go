package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// designSection matches the heading of a numbered DESIGN.md section,
// "## 3.", and designSub a sub-section marker, "**(b) " — (c′) and (c″)
// included — at the start of a line of its body.
var (
	designSection = regexp.MustCompile(`(?m)^## (\d+)\.`)
	designSub     = regexp.MustCompile(`(?m)^\*\*\(([a-z][′″]?)\) `)
)

// designRef matches a reference to a DESIGN.md section — "DESIGN.md
// §9", "DESIGN §3(c′)", "DESIGN.md §3 (b)/(c)" — in Markdown or in Go
// comments, where it may wrap onto the next "//" line. A section named
// by a word instead of its number matches too, so that it is reported.
// designSubRef picks the sub-sections out of the chain.
var (
	designRef    = regexp.MustCompile("DESIGN(?:\\.md)?`?(?:\\s|//)+§([0-9]+|[A-Za-z][\\w-]*)((?:\\s?\\([a-z][′″]?\\))(?:/\\([a-z][′″]?\\))*)?")
	designSubRef = regexp.MustCompile(`\(([a-z][′″]?)\)`)
)

// designSections returns DESIGN.md's numbered sections, each with the
// sub-section markers its body holds.
func designSections(text string) map[int]map[string]bool {
	secs := map[int]map[string]bool{}
	heads := designSection.FindAllStringSubmatchIndex(text, -1)
	for i, h := range heads {
		end := len(text)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		n, _ := strconv.Atoi(text[h[2]:h[3]])
		subs := map[string]bool{}
		for _, m := range designSub.FindAllStringSubmatch(text[h[1]:end], -1) {
			subs[m[1]] = true
		}
		secs[n] = subs
	}
	return secs
}

// checkDesignRefs returns a "file:line: message" problem for every
// reference in text, the contents of file name, to a DESIGN.md section
// that secs lacks or to a sub-section the section does not mark.
func checkDesignRefs(name, text string, secs map[int]map[string]bool) []string {
	var probs []string
	for _, m := range designRef.FindAllStringSubmatchIndex(text, -1) {
		line := 1 + strings.Count(text[:m[0]], "\n")
		sec := text[m[2]:m[3]]
		n, err := strconv.Atoi(sec)
		subs, ok := secs[n]
		if err != nil || !ok {
			probs = append(probs, fmt.Sprintf("%s:%d: DESIGN.md §%s does not exist", name, line, sec))
			continue
		}
		if m[4] < 0 {
			continue
		}
		for _, s := range designSubRef.FindAllStringSubmatch(text[m[4]:m[5]], -1) {
			if !subs[s[1]] {
				probs = append(probs, fmt.Sprintf("%s:%d: DESIGN.md §%d(%s) does not exist", name, line, n, s[1]))
			}
		}
	}
	return probs
}

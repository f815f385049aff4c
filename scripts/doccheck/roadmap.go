package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// roadmapItem matches the heading line of a numbered ROADMAP.md item,
// "N. **title", and roadmapSub a sub-item marker, "(x) ", at the start
// of a line of the item's body.
var (
	roadmapItem = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
	roadmapSub  = regexp.MustCompile(`(?m)^\s*\(([a-z])\) `)
)

// roadmapRef matches a reference to a ROADMAP item — "ROADMAP item N",
// "ROADMAP items N", "ROADMAP N" — with an optional sub-item "(x)", in
// Markdown or in Go comments, where it may wrap onto the next "//"
// line.
var roadmapRef = regexp.MustCompile(`ROADMAP(?:\s|//)+(?:items?(?:\s|//)+)?(\d+)(?:\(([a-z])\))?`)

// roadmapItems returns ROADMAP.md's numbered items, each with the
// sub-item letters its body marks. The items are those of the section
// the first one opens.
func roadmapItems(text string) map[int]map[string]bool {
	items := map[int]map[string]bool{}
	if first := roadmapItem.FindStringIndex(text); first != nil {
		if j := strings.Index(text[first[0]:], "\n## "); j >= 0 {
			text = text[:first[0]+j]
		}
	}
	heads := roadmapItem.FindAllStringSubmatchIndex(text, -1)
	for i, h := range heads {
		end := len(text)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		body := text[h[1]:end]
		n, _ := strconv.Atoi(text[h[2]:h[3]])
		subs := map[string]bool{}
		for _, m := range roadmapSub.FindAllStringSubmatch(body, -1) {
			subs[m[1]] = true
		}
		items[n] = subs
	}
	return items
}

// checkRoadmapRefs returns a "file:line: message" problem for every
// reference in text, the contents of file name, to a ROADMAP item that
// items lacks or to a sub-item the item does not mark.
func checkRoadmapRefs(name, text string, items map[int]map[string]bool) []string {
	var probs []string
	for _, m := range roadmapRef.FindAllStringSubmatchIndex(text, -1) {
		n, _ := strconv.Atoi(text[m[2]:m[3]])
		ref := strconv.Itoa(n)
		subs, ok := items[n]
		if ok && m[4] >= 0 {
			ref += "(" + text[m[4]:m[5]] + ")"
			ok = subs[text[m[4]:m[5]]]
		}
		if !ok {
			line := 1 + strings.Count(text[:m[0]], "\n")
			probs = append(probs, fmt.Sprintf("%s:%d: ROADMAP item %s does not exist", name, line, ref))
		}
	}
	return probs
}

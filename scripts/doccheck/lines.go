package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// lineRef matches a reference to lines of a Go file — "path.go:N",
// "path.go:N–M" (en dash or hyphen) and "path.go:N,M" — in Markdown or
// in a Go comment; lineNum picks the line numbers out of its tail.
var (
	lineRef = regexp.MustCompile(`([\w./-]*\w\.go):(\d+(?:[–-]\d+|(?:,\d+)+)?)`)
	lineNum = regexp.MustCompile(`\d+`)
)

// goFiles returns the line count of every Go file under root, keyed by
// its slash path relative to root. Directories whose name starts with
// a dot (.git, build caches) are skipped.
func goFiles(root string) (map[string]int, error) {
	files := map[string]int{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		text, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		n := strings.Count(string(text), "\n")
		if len(text) > 0 && text[len(text)-1] != '\n' {
			n++
		}
		files[filepath.ToSlash(rel)] = n
		return nil
	})
	return files, err
}

// resolveGoFile returns the line count of the file a reference names:
// the file at that path, or else the one file whose path ends in it (a
// bare name must be unique). It returns why not when there is none.
func resolveGoFile(files map[string]int, ref string) (lines int, why string) {
	if n, ok := files[ref]; ok {
		return n, ""
	}
	hits := 0
	for p, n := range files {
		if strings.HasSuffix(p, "/"+ref) {
			hits++
			lines = n
		}
	}
	switch hits {
	case 0:
		return 0, "does not exist"
	case 1:
		return lines, ""
	}
	return 0, fmt.Sprintf("is ambiguous: %d files end in it", hits)
}

// goComments returns Go source with everything but its comments blanked
// out (newlines kept), so a check sees comment text at its own line.
func goComments(src string) string {
	out := []byte(src)
	for i, c := range out {
		if c != '\n' {
			out[i] = ' '
		}
	}
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, []byte(src), nil, scanner.ScanComments)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return string(out)
		}
		if tok == token.COMMENT {
			copy(out[file.Offset(pos):], lit)
		}
	}
}

// checkLineRefs returns a "file:line: message" problem for every
// reference in text, the contents of file name, to a Go file that files
// (see goFiles) does not resolve or to a line outside it. In a Go
// file only the comments are read.
func checkLineRefs(name, text string, files map[string]int) []string {
	if strings.HasSuffix(name, ".go") {
		text = goComments(text)
	}
	var probs []string
	for _, m := range lineRef.FindAllStringSubmatchIndex(text, -1) {
		line := 1 + strings.Count(text[:m[0]], "\n")
		ref, nums := text[m[2]:m[3]], text[m[4]:m[5]]
		n, why := resolveGoFile(files, ref)
		if why != "" {
			probs = append(probs, fmt.Sprintf("%s:%d: %s %s", name, line, ref, why))
			continue
		}
		for _, s := range lineNum.FindAllString(nums, -1) {
			if l, _ := strconv.Atoi(s); l < 1 || l > n {
				probs = append(probs, fmt.Sprintf("%s:%d: %s:%s is outside its %d lines", name, line, ref, s, n))
			}
		}
	}
	return probs
}

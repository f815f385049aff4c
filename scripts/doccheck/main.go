// Command doccheck enforces the repo's godoc contract: every exported
// identifier in the packages given on the command line must carry a
// doc comment, and every package must have a package comment. It is a
// deliberately small revive/golint stand-in — no dependency, no
// configuration — wired into `make verify`.
//
//	go run ./scripts/doccheck ./internal/serve ./internal/nn
//	go run ./scripts/doccheck -roadmap ROADMAP.md DESIGN.md ./internal/nn
//	go run ./scripts/doccheck -design DESIGN.md README.md ./internal/nn
//	go run ./scripts/doccheck -lines . ROADMAP.md ./internal/nn
//
// Test files are exempt. Methods count: an exported method on any
// receiver needs a comment, and so does every exported method listed
// in an exported interface (the interface is the contract — its method
// set is where implementers read the semantics, e.g. every
// gradient.GradEstimator method). Grouped declarations accept either a
// comment on the group or one on the individual spec.
//
// With -roadmap it also resolves every reference to a ROADMAP item —
// "ROADMAP item N", "ROADMAP N(x)" — in the Markdown files named on
// the command line and in the .go files (tests included) of the package
// directories against the numbered items of that file: item N must
// exist, and a sub-item (x) must be marked at the start of a line of
// its body. With -design it resolves every reference to a DESIGN.md
// section — "DESIGN.md §3", "DESIGN §3(c′)" — in the same files against
// that file's sections: the number must head a "## 3." section, and a
// sub-section (b), (c′) or (c″) must open a "**(b) " marker inside it.
// With -lines it resolves every reference to lines of a Go file —
// "path.go:N", "path.go:N–M", "path.go:N,M" — in the same Markdown files
// and in the comments of the same Go files against the Go files under
// the directory it names: the path must name a file, or end the path of
// exactly one (a bare file name must be unique), and every N must be
// one of its lines.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	roadmap := flag.String("roadmap", "", "ROADMAP.md to resolve item references against (off when empty)")
	design := flag.String("design", "", "DESIGN.md to resolve section references against (off when empty)")
	lines := flag.String("lines", "", "directory whose Go files resolve path.go:N references (off when empty)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-roadmap ROADMAP.md] [-design DESIGN.md] [-lines dir] (./pkg/dir | doc.md)...")
		os.Exit(2)
	}
	// refChecks are the reference resolvers the flags switch on.
	var refChecks []func(name, text string) []string
	if *roadmap != "" {
		items := roadmapItems(mustRead(*roadmap))
		refChecks = append(refChecks, func(name, text string) []string { return checkRoadmapRefs(name, text, items) })
	}
	if *design != "" {
		secs := designSections(mustRead(*design))
		refChecks = append(refChecks, func(name, text string) []string { return checkDesignRefs(name, text, secs) })
	}
	if *lines != "" {
		files, err := goFiles(*lines)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		refChecks = append(refChecks, func(name, text string) []string { return checkLineRefs(name, text, files) })
	}
	bad := 0
	for _, arg := range flag.Args() {
		var probs []string
		var err error
		if strings.HasSuffix(arg, ".md") {
			if refChecks != nil {
				probs, err = checkRefsIn([]string{arg}, refChecks)
			}
		} else {
			probs, err = checkDir(arg)
			if err == nil && refChecks != nil {
				var files []string
				files, err = filepath.Glob(filepath.Join(arg, "*.go"))
				if err == nil {
					var refs []string
					refs, err = checkRefsIn(files, refChecks)
					probs = append(probs, refs...)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", arg, err)
			os.Exit(2)
		}
		for _, p := range probs {
			fmt.Println(p)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// mustRead returns the contents of the file at path, exiting on error.
func mustRead(path string) string {
	text, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	return string(text)
}

// checkRefsIn reads each file and runs every reference check on it.
func checkRefsIn(files []string, checks []func(name, text string) []string) ([]string, error) {
	var probs []string
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, check := range checks {
			probs = append(probs, check(filepath.ToSlash(f), string(text))...)
		}
	}
	return probs, nil
}

// checkDir parses one package directory (non-test files only) and
// returns a "file:line: message" problem per undocumented export.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var probs []string
	pos := func(n ast.Node) string {
		p := fset.Position(n.Pos())
		return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Anchor the problem to the first file alphabetically so
			// the message is stable across runs.
			first := ""
			for name := range pkg.Files {
				if first == "" || name < first {
					first = name
				}
			}
			probs = append(probs, fmt.Sprintf("%s:1: package %s has no package comment",
				filepath.ToSlash(first), pkg.Name))
		}
		for _, f := range pkg.Files {
			probs = append(probs, checkFile(f, pos)...)
		}
	}
	return probs, nil
}

// receiverExported reports whether a function is package-level or a
// method on an exported type. Methods on unexported receivers never
// appear in godoc, so they are exempt (matching golint).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

// checkFile walks one file's top-level declarations.
func checkFile(f *ast.File, pos func(ast.Node) string) []string {
	var probs []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				probs = append(probs, fmt.Sprintf("%s: exported %s %s has no doc comment",
					pos(d), kind, d.Name.Name))
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						probs = append(probs, fmt.Sprintf("%s: exported type %s has no doc comment",
							pos(s), s.Name.Name))
					}
					if s.Name.IsExported() {
						probs = append(probs, checkInterface(s, pos)...)
					}
				case *ast.ValueSpec:
					if d.Doc != nil || s.Doc != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							probs = append(probs, fmt.Sprintf("%s: exported %s %s has no doc comment",
								pos(s), strings.ToLower(d.Tok.String()), name.Name))
						}
					}
				}
			}
		}
	}
	return probs
}

// checkInterface requires a doc comment on every exported method of an
// exported interface type. Embedded interfaces (no Names) are skipped:
// their methods are documented at their own declaration site.
func checkInterface(s *ast.TypeSpec, pos func(ast.Node) string) []string {
	iface, ok := s.Type.(*ast.InterfaceType)
	if !ok || iface.Methods == nil {
		return nil
	}
	var probs []string
	for _, m := range iface.Methods.List {
		if len(m.Names) == 0 || m.Doc != nil {
			continue
		}
		for _, name := range m.Names {
			if name.IsExported() {
				probs = append(probs, fmt.Sprintf("%s: interface %s: method %s has no doc comment",
					pos(m), s.Name.Name, name.Name))
			}
		}
	}
	return probs
}

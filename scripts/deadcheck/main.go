// Command deadcheck fails on code that no program reaches: an exported
// package-level identifier or method, or an unexported package-level
// func or method, declared in a non-test file of a non-main package,
// with no reference from a non-test file anywhere and none from another
// package's tests. A package's own tests do not keep its code alive — a
// helper only they call moves into their _test.go file or is deleted,
// and an export only they call is unexported or deleted.
//
//	go run ./scripts/deadcheck
//
// It type-checks every package of the module in the current directory
// and of the nested bench/ module (both are users), test files
// included, once with the default build tags and once with purego,
// nnparanoid and race, so every file is seen by some pass. A method
// that makes its type satisfy an interface — declared in the module, in
// an imported package, or the predeclared error — counts as used, and
// so does a type named by its own methods' receivers. There are no
// flags and no allowlist.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type checker struct {
	fset   *token.FileSet
	mod    string
	std    types.Importer
	parsed map[string]*ast.File   // by file path, shared by the passes
	decls  map[token.Pos]string   // candidates → "pkg.Name"
	used   map[token.Pos]bool     // candidates something reaches
	files  map[string][]*ast.File // this pass: import path → library + in-package test files
	xtests map[string][]*ast.File // this pass: import path → external test files
	done   map[string]*types.Package
	named  map[*types.Named]bool // this pass: module types, for the interface rule
	ifaces map[*types.Interface]bool
}

func main() {
	dead, err := find()
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadcheck: %d identifier(s) reached only by their own package's tests or not at all\n", len(dead))
		os.Exit(1)
	}
}

// find checks the module in the current directory and returns its dead
// candidates as sorted "file:line: pkg.Name" lines.
func find() ([]string, error) {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	c := &checker{fset: token.NewFileSet(), parsed: map[string]*ast.File{},
		decls: map[token.Pos]string{}, used: map[token.Pos]bool{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			c.mod = strings.TrimSpace(m)
		}
	}
	if c.mod == "" {
		return nil, fmt.Errorf("go.mod: no module line")
	}
	build.Default.CgoEnabled = false // the pure-Go std files declare the same API
	c.std = importer.ForCompiler(c.fset, "source", nil)
	for _, tags := range [][]string{nil, {"purego", "nnparanoid", "race"}} {
		ctxt := build.Default
		ctxt.BuildTags = tags
		if err := c.pass(&ctxt); err != nil {
			return nil, err
		}
	}
	var dead []string
	for pos, name := range c.decls {
		if !c.used[pos] {
			p := c.fset.Position(pos)
			dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, name))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

func (c *checker) inModule(path string) bool {
	return path == c.mod || strings.HasPrefix(path, c.mod+"/")
}

func (c *checker) inTest(pos token.Pos) bool {
	f := c.fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// pass loads and checks every package under one set of build tags.
// Each package is checked once, with its in-package test files, and
// that build is what every importer sees: the go command builds the
// same thing for the package's own tests, and a test may not import a
// package that imports the one under test, so no build differs in what
// the rest of the module can name.
func (c *checker) pass(ctxt *build.Context) error {
	c.files, c.xtests, c.done = map[string][]*ast.File{}, map[string][]*ast.File{}, map[string]*types.Package{}
	c.named, c.ifaces = map[*types.Named]bool{}, map[*types.Interface]bool{}
	if err := c.load(ctxt); err != nil {
		return err
	}
	for path := range c.files {
		if _, err := c.Import(path); err != nil {
			return err
		}
	}
	for path, files := range c.xtests {
		if _, err := c.check(path+"_test", files); err != nil {
			return err
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range c.done {
		c.scan(p, seen)
	}
	c.markInterfaceMethods()
	return nil
}

// load parses (once across passes) the .go files of every directory of
// the module tree that match ctxt and sorts them into packages.
func (c *checker) load(ctxt *build.Context) error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(filepath.Clean(dir), name); !ok || err != nil {
			return err
		}
		f := c.parsed[path]
		if f == nil {
			if f, err = parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution); err != nil {
				return err
			}
			c.parsed[path] = f
		}
		ipath := strings.TrimSuffix(c.mod+"/"+filepath.ToSlash(dir), "/")
		if strings.HasSuffix(f.Name.Name, "_test") {
			c.xtests[ipath] = append(c.xtests[ipath], f)
		} else {
			c.files[ipath] = append(c.files[ipath], f)
		}
		return nil
	})
}

// Import resolves a module package from this pass's checks and
// anything else from the standard library's source.
func (c *checker) Import(path string) (*types.Package, error) {
	if !c.inModule(path) {
		return c.std.Import(path)
	}
	if p, ok := c.done[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	if c.files[path] == nil {
		return nil, fmt.Errorf("no package %s", path)
	}
	c.done[path] = nil
	p, err := c.check(path, c.files[path])
	c.done[path] = p
	return p, err
}

// check type-checks one package and records its candidates, the module
// objects it references, and the interface literals and generic
// instantiations its non-test files use.
func (c *checker) check(path string, files []*ast.File) (*types.Package, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	p, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.declare(p, info)
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !c.inModule(obj.Pkg().Path()) {
			continue
		}
		// A test's reference counts only from another directory.
		if !c.inTest(id.Pos()) || filepath.Dir(c.fset.File(id.Pos()).Name()) != filepath.Dir(c.fset.File(obj.Pos()).Name()) {
			c.used[obj.Pos()] = true
		}
	}
	for e, tv := range info.Types {
		if c.inTest(e.Pos()) {
			continue
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.TypeArgs().Len() > 0 && c.inModule(n.Obj().Pkg().Path()) {
			c.named[n] = true
		} else if it, ok := t.(*types.Interface); ok {
			c.ifaces[it] = true
		}
	}
	return p, nil
}

// declare records as candidates the exported package-level
// identifiers, the unexported package-level funcs, and the concrete
// methods that p declares in non-test files; a main package declares
// none.
func (c *checker) declare(p *types.Package, info *types.Info) {
	for id, obj := range info.Defs {
		if obj == nil || p.Name() == "main" || c.inTest(id.Pos()) {
			continue
		}
		if _, isFunc := obj.(*types.Func); !id.IsExported() && (!isFunc || id.Name == "init" || id.Name == "_") {
			continue
		}
		name := p.Name() + "."
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && !types.IsInterface(sig.Recv().Type()) {
			recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
			name += strings.TrimPrefix(recv, "*") + "."
		} else if obj.Parent() != p.Scope() {
			continue
		}
		c.decls[id.Pos()] = name + id.Name
	}
}

// scan collects the interfaces p and its imports declare, and the
// non-generic types the module declares outside tests.
func (c *checker) scan(p *types.Package, seen map[*types.Package]bool) {
	if p == nil || seen[p] {
		return
	}
	seen[p] = true
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || c.inTest(tn.Pos()) {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			c.ifaces[it] = true
		} else if n, ok := tn.Type().(*types.Named); ok && c.inModule(p.Path()) && n.TypeParams().Len() == 0 {
			c.named[n] = true
		}
	}
	for _, q := range p.Imports() {
		c.scan(q, seen)
	}
}

// markInterfaceMethods marks, for every collected type T where *T
// implements a collected interface, the methods that implement it.
func (c *checker) markInterfaceMethods() {
	c.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for n := range c.named {
		ptr := types.NewPointer(n)
		for it := range c.ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					c.used[obj.Pos()] = true
				}
			}
		}
	}
}

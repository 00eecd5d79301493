package cmpqos

// The two whole-tree gates of tier-1 (DESIGN §3.1): nothing under
// internal/ that no program can reach, and no document citing a test
// that does not exist.

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
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// surfaceRoots are the directories whose non-test files are the programs:
// whatever they mention is reachable by definition.
var surfaceRoots = []string{".", "cmd/*", "examples/*", "bench"}

// surfaceAllow names the unreachable declarations that stay, each with
// its reason. An entry that is reachable, or gone, fails the gate too.
var surfaceAllow = map[string]string{
	"cmpqos/internal/qos.Interchangeable":   "paper §3.3 definition",
	"cmpqos/internal/qos.ElasticEquivalent": "paper §3.3 definition",
}

func TestInternalSurface(t *testing.T) {
	dead, err := unreachableDecls(".", "cmpqos", surfaceRoots)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, name := range dead {
		found[name] = true
		if _, ok := surfaceAllow[name]; !ok {
			t.Errorf("%s: no non-test code reaches it from %v — delete it, move it to a _test.go file, or use it", name, surfaceRoots)
		}
	}
	for name, reason := range surfaceAllow {
		if !found[name] {
			t.Errorf("%s: allow-listed (%s) but reachable or gone — drop the stale entry", name, reason)
		}
	}
}

// TestInternalSurfaceFixture runs the same pass over a planted tree: a
// gate that reports nothing must not pass silently.
func TestInternalSurfaceFixture(t *testing.T) {
	dead, err := unreachableDecls("testdata/surface", "fixture", []string{"cmd/*"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixture/internal/lib.Dead"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("unreachable declarations in the fixture = %v, want %v", dead, want)
	}
}

// unreachableDecls type-checks the non-test files of the module rooted
// at dir (import path mod) and returns, sorted, every package-level
// declaration under internal/ that no root package reaches. Nodes are
// package-level declarations named "import/path.Name"; a method's body
// and a struct's fields belong to their type's node, so a live type
// keeps everything its methods mention. Every identifier a root
// package uses is reached, as is whatever the init functions and `var _`
// declarations of the packages the roots link in use.
func unreachableDecls(dir, mod string, roots []string) ([]string, error) {
	l, err := newLoader(dir, mod)
	if err != nil {
		return nil, err
	}
	defer l.close()

	g := graph{mod: mod, isRoot: map[*pkg]bool{}, declared: map[string]bool{}, edges: map[string][]string{}, reached: map[string]bool{}}
	for _, pat := range roots {
		dirs, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			p, err := l.load(l.importPath(d))
			if err != nil {
				return nil, err
			}
			if p != nil {
				g.addRoot(p)
			}
		}
	}
	linked := len(l.order) // every package loaded so far is in some root's import closure
	err = filepath.WalkDir(filepath.Join(dir, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		_, err = l.load(l.importPath(path))
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, p := range l.order {
		if !g.isRoot[p] {
			g.addPackage(p, i < linked)
		}
	}
	g.flood()

	dead := []string{}
	for name := range g.declared {
		if strings.HasPrefix(name, mod+"/internal/") && !g.reached[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// A pkg is one type-checked directory of the module.
type pkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// loader type-checks each module package once, on demand, and is its own
// importer for module paths, so the objects one package uses are the
// objects another declares; everything else comes from the stdlib
// "source" importer, shared, which needs neither network nor export data.
type loader struct {
	dir, mod string
	fset     *token.FileSet
	std      types.Importer
	cgo      bool
	pkgs     map[string]*pkg
	order    []*pkg
}

func newLoader(dir, mod string) (*loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{dir: abs, mod: mod, fset: token.NewFileSet(), cgo: build.Default.CgoEnabled, pkgs: map[string]*pkg{}}
	// The pure-Go variants of net and os/user type-check without running
	// cgo, so the pass does not depend on a C compiler being installed.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l, nil
}

func (l *loader) close() { build.Default.CgoEnabled = l.cgo }

func (l *loader) importPath(dir string) string {
	abs, _ := filepath.Abs(dir)
	rel, _ := filepath.Rel(l.dir, abs)
	if rel == "." {
		return l.mod
	}
	return l.mod + "/" + filepath.ToSlash(rel)
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("no Go files in %s", path)
	}
	return p.types, nil
}

// load parses and type-checks the package at a module import path; a
// directory without non-test Go files yields nil.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	dir := filepath.Join(l.dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	l.pkgs[path] = nil // in progress
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// graph is the reachability relation over declaration names.
type graph struct {
	mod      string
	isRoot   map[*pkg]bool
	declared map[string]bool
	edges    map[string][]string
	reached  map[string]bool
	work     []string
}

func (g *graph) reach(name string) {
	if name != "" && !g.reached[name] {
		g.reached[name] = true
		g.work = append(g.work, name)
	}
}

func (g *graph) flood() {
	for len(g.work) > 0 {
		name := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		for _, to := range g.edges[name] {
			g.reach(to)
		}
	}
}

// addRoot reaches everything a root package mentions.
func (g *graph) addRoot(p *pkg) {
	g.isRoot[p] = true
	for _, obj := range p.info.Uses {
		g.reach(g.name(obj))
	}
}

// addPackage records every declaration of p with an edge to each
// declaration it mentions.
func (g *graph) addPackage(p *pkg, linked bool) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				g.addDecl(p, linked, d, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						g.addDecl(p, linked, spec, spec.Name)
					case *ast.ValueSpec:
						g.addDecl(p, linked, spec, spec.Names...)
					}
				}
			}
		}
	}
}

// addDecl attributes what the declaration n mentions to the names it
// declares — for a method, to its receiver's type. init functions and
// blank declarations have no name to be reached by: in a linked package
// what they mention is reached outright.
func (g *graph) addDecl(p *pkg, linked bool, n ast.Node, ids ...*ast.Ident) {
	var from []string
	for _, id := range ids {
		if name := g.name(p.info.Defs[id]); name != "" {
			g.declared[name] = true
			from = append(from, name)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		to := g.name(p.info.Uses[id])
		if to == "" {
			return true
		}
		for _, f := range from {
			g.edges[f] = append(g.edges[f], to)
		}
		if len(from) == 0 && linked {
			g.reach(to)
		}
		return true
	})
}

// name maps an object to the package-level declaration of this module
// that owns it: itself, or for a method its receiver's type.
// Locals, struct fields (their type is mentioned wherever a value of it
// comes from) and anything outside the module map to "".
func (g *graph) name(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != g.mod && !strings.HasPrefix(path, g.mod+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return path + "." + named.Obj().Name()
			}
			return ""
		}
	}
	// go/types parents init and blank functions to the package scope
	// although nothing can name them.
	if obj.Parent() != obj.Pkg().Scope() || obj.Name() == "init" || obj.Name() == "_" {
		return ""
	}
	return path + "." + obj.Name()
}

// TestDocCitations holds README.md, DESIGN.md and EXPERIMENTS.md to
// the tree: every Test / Benchmark / Fuzz / Example identifier they
// cite is a function in some _test.go file of the repository.
func TestDocCitations(t *testing.T) {
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z]\w*`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range cited.FindAllString(line, -1) {
				if !funcs[name] {
					t.Errorf("%s:%d cites %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}

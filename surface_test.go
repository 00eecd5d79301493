package cmpqos

// The four whole-tree gates of tier-1 (DESIGN §3.1): nothing under
// internal/ that no program can reach, no option no program sets, no
// document citing a test that does not exist, and no package-scope name
// shadowing a predeclared one.

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
	"sync"
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

// knobAllow names the option fields no program writes that stay.
var knobAllow = map[string]string{}

// moduleTree type-checks the repository once for both gates.
var moduleTree = sync.OnceValues(func() (*tree, error) { return loadTree(".", "cmpqos", surfaceRoots) })

func TestInternalSurface(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, tr.unreachableDecls(), surfaceAllow,
		fmt.Sprintf("no non-test code reaches it from %v — delete it, move it to a _test.go file, or use it", surfaceRoots),
		"reachable or gone")
}

// TestConfigKnobs is the option axis of the surface gate: an exported
// field of a …Config, …Options or …Params struct under internal/ that no
// non-test file writes has one value in every program, so it is a
// constant and the branch it selects is dead.
func TestConfigKnobs(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, tr.unwrittenKnobs(), knobAllow,
		"no non-test code sets it — make it a constant and delete the branch it selects",
		"written or gone")
}

// TestNoShadowedBuiltins: a package-scope name that is also a predeclared
// one (a hand-written min or max from before Go 1.21, an error type)
// silently changes what the name means in every file of its package.
func TestNoShadowedBuiltins(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tr.shadowedBuiltins() {
		t.Errorf("%s shadows the predeclared identifier — delete it or rename it", name)
	}
}

// checkAllowed fails for every found name outside the allow-list and for
// every allow-list entry not found.
func checkAllowed(t *testing.T, found []string, allow map[string]string, advice, stale string) {
	t.Helper()
	seen := map[string]bool{}
	for _, name := range found {
		seen[name] = true
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: %s", name, advice)
		}
	}
	for name, reason := range allow {
		if !seen[name] {
			t.Errorf("%s: allow-listed (%s) but %s — drop the stale entry", name, reason, stale)
		}
	}
}

// TestInternalSurfaceFixture runs the same passes over a planted tree: a
// gate that reports nothing must not pass silently.
func TestInternalSurfaceFixture(t *testing.T) {
	tr, err := loadTree("testdata/surface", "fixture", []string{"cmd/*"})
	if err != nil {
		t.Fatal(err)
	}
	if dead, want := tr.unreachableDecls(), []string{"fixture/internal/lib.Dead"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("unreachable declarations in the fixture = %v, want %v", dead, want)
	}
	if knobs, want := tr.unwrittenKnobs(), []string{"fixture/internal/lib.Config.Unset"}; !reflect.DeepEqual(knobs, want) {
		t.Errorf("unwritten option fields in the fixture = %v, want %v", knobs, want)
	}
	if shadows, want := tr.shadowedBuiltins(), []string{"fixture/cmd/app.max"}; !reflect.DeepEqual(shadows, want) {
		t.Errorf("shadowed builtins in the fixture = %v, want %v", shadows, want)
	}
}

// A tree is the type-checked non-test code of one module: the packages
// the root patterns match, what they import, and every package under
// internal/.
type tree struct {
	mod    string
	pkgs   []*pkg // in import order
	isRoot map[*pkg]bool
	linked int // pkgs[:linked] are in some root's import closure
}

// loadTree type-checks the non-test files of the module rooted at dir
// (import path mod).
func loadTree(dir, mod string, roots []string) (*tree, error) {
	l, err := newLoader(dir, mod)
	if err != nil {
		return nil, err
	}
	defer l.close()

	tr := &tree{mod: mod, isRoot: map[*pkg]bool{}}
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
				tr.isRoot[p] = true
			}
		}
	}
	tr.linked = len(l.order)
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
	tr.pkgs = l.order
	return tr, err
}

// unreachableDecls returns, sorted, every package-level declaration
// under internal/ that no root package reaches. Nodes are
// package-level declarations named "import/path.Name"; a method's body
// and a struct's fields belong to their type's node, so a live type
// keeps everything its methods mention. Every identifier a root
// package uses is reached, as is whatever the init functions and `var _`
// declarations of the packages the roots link in use.
func (tr *tree) unreachableDecls() []string {
	g := graph{mod: tr.mod, declared: map[string]bool{}, edges: map[string][]string{}, reached: map[string]bool{}}
	for i, p := range tr.pkgs {
		if tr.isRoot[p] {
			g.addRoot(p)
		} else {
			g.addPackage(p, i < tr.linked)
		}
	}
	g.flood()

	dead := []string{}
	for name := range g.declared {
		if strings.HasPrefix(name, tr.mod+"/internal/") && !g.reached[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead
}

var knobStruct = regexp.MustCompile(`(Config|Options|Params)$`)

// unwrittenKnobs returns, sorted as "import/path.Type.Field", every
// exported field of a struct under internal/ named …Config, …Options or
// …Params that no file of the tree writes. A write is a key of a
// composite literal (any element of an unkeyed one), a field on the left
// of an assignment or under ++/--, or a field whose address is taken; a
// field with a json tag is written by whatever decodes it. Default
// constructors are files of the tree like any other.
func (tr *tree) unwrittenKnobs() []string {
	written := map[types.Object]bool{}
	// lhs marks every field selected on the way to an assigned location:
	// cfg.L2.Ways = 8 sets Ways and, through it, L2.
	var lhs func(p *pkg, e ast.Expr)
	lhs = func(p *pkg, e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			written[p.info.Uses[e.Sel]] = true
			lhs(p, e.X)
		case *ast.IndexExpr:
			lhs(p, e.X)
		case *ast.StarExpr:
			lhs(p, e.X)
		case *ast.ParenExpr:
			lhs(p, e.X)
		}
	}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st := structOf(p.info.Types[n].Type)
					if st == nil {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[p.info.Uses[kv.Key.(*ast.Ident)]] = true
						} else {
							written[st.Field(i)] = true
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(p, e)
					}
				case *ast.IncDecStmt:
					lhs(p, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(p, n.X)
					}
				}
				return true
			})
		}
	}

	knobs := []string{}
	for _, p := range tr.pkgs {
		if !strings.HasPrefix(p.types.Path(), tr.mod+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !knobStruct.MatchString(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				_, decoded := reflect.StructTag(st.Tag(i)).Lookup("json")
				if f.Exported() && !written[f] && !decoded {
					knobs = append(knobs, p.types.Path()+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(knobs)
	return knobs
}

// shadowedBuiltins returns, sorted as "import/path.Name", every
// package-scope name of the tree that types.Universe also declares.
func (tr *tree) shadowedBuiltins() []string {
	shadows := []string{}
	for _, p := range tr.pkgs {
		for _, name := range p.types.Scope().Names() {
			if types.Universe.Lookup(name) != nil {
				shadows = append(shadows, p.types.Path()+"."+name)
			}
		}
	}
	sort.Strings(shadows)
	return shadows
}

// structOf is the struct a composite literal of type t (or *t, for an
// elided &T{…} element) fills in, nil for slices, maps and arrays.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
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
	p := &pkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, // composite literals only are read (unwrittenKnobs)
	}}
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

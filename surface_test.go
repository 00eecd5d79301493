package cmpqos

// The four whole-tree gates of tier-1 (DESIGN §3.1): nothing under
// internal/ that no program can reach, no option no program sets, no
// document citing a test that does not exist, and no package-scope name
// shadowing a predeclared one.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
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
	"cmpqos/internal/parallel.Memo.Len":     "memoization tests in other packages read it (TestDefaultStoreMemoizesProbeCurve, TestCurveStoreSingleflightAcrossWorkers)",
	"cmpqos/internal/sim.RunCache.Len":      "memoization tests in other packages read it (TestRunCacheDeduplicatesAcrossExperiments)",
}

// knobAllow names the one-valued option fields that stay, each with its
// reason.
var knobAllow = map[string]string{
	"cmpqos/internal/mem.Config.PeakBytesPerS": "bus-contention tests lower it to reach a congested bus",
	"cmpqos/internal/cache.Config.BlockSize":   "bench/ writes it, and bench/ changes only with the benchmark",
	"cmpqos/internal/cache.Config.HitCycles":   "read by nothing, but bench/ writes it, and bench/ changes only with the benchmark",
}

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
// field of a …Config, …Options or …Params struct under internal/ that
// every non-test construction gives the same constant has one value in
// every program, so it is a constant and the branch it selects is dead.
func TestConfigKnobs(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	checkAllowed(t, tr.oneValuedKnobs(), knobAllow,
		"every non-test construction gives it one value — make it a constant and delete the branch it selects",
		"given two values or gone")
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
	if dead, want := tr.unreachableDecls(), []string{"fixture/internal/lib.Dead", "fixture/internal/lib.Dead.Run",
		"fixture/internal/lib.Live.Unused", "fixture/internal/lib.Lone.Len", "fixture/internal/lib.Stage.Label", "fixture/internal/lib.doubler.Label"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("unreachable declarations in the fixture = %v, want %v", dead, want)
	}
	if knobs, want := tr.oneValuedKnobs(), []string{"fixture/internal/lib.Config.Fixed", "fixture/internal/lib.Config.Unset"}; !reflect.DeepEqual(knobs, want) {
		t.Errorf("one-valued option fields in the fixture = %v, want %v", knobs, want)
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
	dir    string // absolute
	fset   *token.FileSet
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

	tr := &tree{mod: mod, dir: l.dir, fset: l.fset, isRoot: map[*pkg]bool{}}
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

// unreachableDecls returns, sorted, every package-level declaration and
// every method under internal/ that no root package reaches. Nodes are
// package-level declarations named "import/path.Name", methods named
// "import/path.Type.Method", and the methods of the module's interfaces,
// "import/path.Iface.Method"; a struct's fields belong to their type's
// node, a method's body to the method's. A method is reached when
// reached code names it — a call, a method value, a method expression or
// a promoted selector. A call through a module interface reaches the
// interface's method, and through it the method of each reached type
// that implements the interface. Where a call cannot be traced, a method
// is reached together with its type: when its type implements an
// interface declared outside the module that the tree mentions, when its
// name is a method of an unnamed interface or a type-parameter
// constraint the tree mentions, or when it is one that fmt,
// encoding/json or errors look up at run time. A type alias in a root
// package reaches the exported methods of the type it names. Every
// identifier a root package uses is reached, as is whatever the init
// functions and `var _` declarations of the packages the roots link in
// use.
func (tr *tree) unreachableDecls() []string {
	g := graph{mod: tr.mod, declared: map[string]bool{}, edges: map[string][]string{}, reached: map[string]bool{}}
	foreign := g.mentionedInterfaces(tr.pkgs)
	for i, p := range tr.pkgs {
		if tr.isRoot[p] {
			g.addRoot(p)
		} else {
			g.addPackage(p, i < tr.linked)
		}
	}
	g.addDispatch(tr, foreign)
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

// runtimeMethods are the method names fmt, encoding/json and errors look
// up on a value at run time, whatever interface the tree mentions.
var runtimeMethods = []string{"String", "Error", "Format", "GoString", "MarshalJSON", "UnmarshalJSON",
	"MarshalText", "UnmarshalText", "Unwrap", "Is", "As"}

// mentionedInterfaces sets g.untraced to the method names a call the
// graph cannot trace may reach by name: runtimeMethods, and the methods
// of every unnamed interface and type-parameter constraint the tree
// mentions — the type of a declaration, a use or an expression, or one
// in the signature of a function it uses. It returns the named
// interfaces with no node of their own that the tree mentions the same
// way: those declared outside the module (or inside a function).
func (g *graph) mentionedInterfaces(pkgs []*pkg) (foreign []*types.Interface) {
	g.untraced = map[string]bool{}
	for _, m := range runtimeMethods {
		g.untraced[m] = true
	}
	byName := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			g.untraced[iface.Method(i).Name()] = true
		}
	}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := types.Unalias(t).(type) {
		case *types.Named:
			iface, ok := u.Underlying().(*types.Interface)
			switch {
			case !ok:
			case g.name(u.Obj()) != "":
				// A module interface dispatches. Declarations are walked
				// before expressions, so the literal of its declaration
				// is not taken for an unnamed interface.
				seen[iface] = true
			default: // declared outside the module, or in a function
				foreign = append(foreign, iface)
			}
		case *types.TypeParam:
			byName(u.Constraint().Underlying().(*types.Interface))
		case *types.Interface:
			byName(u)
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			walk(u.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, objs := range []map[*ast.Ident]types.Object{p.info.Defs, p.info.Uses} {
			for _, obj := range objs {
				switch obj.(type) {
				case *types.TypeName, *types.Func:
					walk(obj.Type())
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			walk(tv.Type)
		}
	}
	return foreign
}

var knobStruct = regexp.MustCompile(`(Config|Options|Params)$`)

// oneValuedKnobs returns, sorted as "import/path.Type.Field", every
// exported field of a struct under internal/ named …Config, …Options or
// …Params that holds one value in every program: each construction in
// the tree gives it the same compile-time constant. A keyed or
// positional element of a composite literal, or the right-hand side of a
// plain `=`, contributes its constant, and a literal that omits the
// field contributes the zero value. The field is a real knob once it
// gets a value that is not a constant, is the target of op=, ++ or --,
// has its address taken, is selected on the way to a written location
// (cfg.L2.Ways = 8 makes L2 a knob and gives Ways the value 8), or has a
// json tag (whatever decodes it sets it). A field nothing writes is the
// case of the single zero value. Default constructors are files of the
// tree like any other.
func (tr *tree) oneValuedKnobs() []string {
	knob := map[*types.Var]bool{}
	values := map[*types.Var]map[string]bool{}
	give := func(f *types.Var, v string) {
		if values[f] == nil {
			values[f] = map[string]bool{}
		}
		values[f][v] = true
	}
	// assign records what storing e into f contributes.
	assign := func(p *pkg, f *types.Var, e ast.Expr) {
		switch tv := p.info.Types[e]; {
		case tv.Value != nil:
			give(f, constKey(tv.Value))
		case tv.IsNil():
			give(f, zeroKey(f.Type()))
		default:
			knob[f] = true
		}
	}
	// through makes a knob of every field selected on the way to a
	// location written by anything but a plain store.
	var through func(p *pkg, e ast.Expr)
	through = func(p *pkg, e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if f := fieldOf(p, e); f != nil {
				knob[f] = true
			}
			through(p, e.X)
		case *ast.IndexExpr:
			through(p, e.X)
		case *ast.StarExpr:
			through(p, e.X)
		case *ast.ParenExpr:
			through(p, e.X)
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
					given := map[*types.Var]bool{}
					for i, elt := range n.Elts {
						f, v := st.Field(i).Origin(), elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							f, v = p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin(), kv.Value
						}
						given[f] = true
						assign(p, f, v)
					}
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i).Origin(); !given[f] {
							give(f, zeroKey(f.Type()))
						}
					}
				case *ast.AssignStmt:
					for i, e := range n.Lhs {
						sel, _ := ast.Unparen(e).(*ast.SelectorExpr)
						if f := fieldOf(p, sel); f != nil && n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							assign(p, f, n.Rhs[i])
							through(p, sel.X)
						} else {
							through(p, e)
						}
					}
				case *ast.IncDecStmt:
					through(p, n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						through(p, n.X)
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
				if f.Exported() && !knob[f] && !decoded && len(values[f]) <= 1 {
					knobs = append(knobs, p.types.Path()+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(knobs)
	return knobs
}

// fieldOf is the struct field a selector names; nil for a method, a
// package-qualified name or a nil selector.
func fieldOf(p *pkg, sel *ast.SelectorExpr) *types.Var {
	if sel == nil {
		return nil
	}
	if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// constKey spells a constant so that equal values compare equal whatever
// their kind: 2e9 and 2000000000 are one value.
func constKey(v constant.Value) string {
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.ToFloat(v).ExactString()
	}
	return v.ExactString()
}

// zeroKey spells the zero value of t as constKey spells constants.
func zeroKey(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch info := b.Info(); {
		case info&types.IsNumeric != 0:
			return constKey(constant.MakeInt64(0))
		case info&types.IsString != 0:
			return constKey(constant.MakeString(""))
		case info&types.IsBoolean != 0:
			return constKey(constant.MakeBool(false))
		}
	}
	return "zero"
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
		Types: map[ast.Expr]types.TypeAndValue{}, // read by oneValuedKnobs
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

// graph is the reachability relation over declaration and method names.
type graph struct {
	mod      string
	declared map[string]bool
	edges    map[string][]string
	reached  map[string]bool
	work     []string
	untraced map[string]bool // method names reached together with their type
	dispatch []dispatch
}

// A dispatch is a call through a module interface: once both typ and
// iface are reached, so is method, typ's implementation of iface.
type dispatch struct{ typ, iface, method string }

func (g *graph) reach(name string) {
	if name != "" && !g.reached[name] {
		g.reached[name] = true
		g.work = append(g.work, name)
	}
}

func (g *graph) flood() {
	for len(g.work) > 0 {
		for len(g.work) > 0 {
			name := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			for _, to := range g.edges[name] {
				g.reach(to)
			}
		}
		for _, d := range g.dispatch {
			if g.reached[d.typ] && g.reached[d.iface] {
				g.reach(d.method)
			}
		}
	}
}

// addRoot reaches everything a root package mentions, and through each
// type alias it declares the exported methods of the aliased type: the
// alias is public API, whoever imports the root may call them.
func (g *graph) addRoot(p *pkg) {
	for _, obj := range p.info.Uses {
		g.reach(g.name(obj))
	}
	for _, obj := range p.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		t := types.Unalias(tn.Type())
		if _, ok := t.Underlying().(*types.Interface); !ok {
			t = types.NewPointer(t)
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				g.reach(g.name(m))
			}
		}
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
				if d.Recv != nil && g.untraced[d.Name.Name] {
					fn := p.info.Defs[d.Name].(*types.Func)
					typ := g.name(receiverType(fn).Obj())
					g.edges[typ] = append(g.edges[typ], g.name(fn))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						g.addDecl(p, linked, spec, spec.Name)
						g.addInterfaceMethods(p.info.Defs[spec.Name])
					case *ast.ValueSpec:
						g.addDecl(p, linked, spec, spec.Names...)
					}
				}
			}
		}
	}
}

// addInterfaceMethods declares a node for each method a package-level
// interface declares, with an edge to the interface: the method's
// signature is part of the interface's declaration.
func (g *graph) addInterfaceMethods(obj types.Object) {
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok || g.name(obj) == "" {
		return
	}
	for i := 0; i < iface.NumExplicitMethods(); i++ {
		m := g.name(iface.ExplicitMethod(i))
		g.declared[m] = true
		g.edges[m] = append(g.edges[m], g.name(obj))
	}
}

// addDispatch links each concrete type outside the roots to the methods
// an interface call may reach on it. For a module interface it
// implements, the method is reached once the type and the interface's
// method are. For a foreign interface the tree mentions and it
// implements, foreign code may make the call, so the method is reached
// with the type. Implementing means through *T, whose method set holds
// T's.
func (g *graph) addDispatch(tr *tree, foreign []*types.Interface) {
	var ifaces []*types.Interface
	var concrete []*types.Named
	for _, p := range tr.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			} else if !tr.isRoot[p] {
				concrete = append(concrete, tn.Type().(*types.Named))
			}
		}
	}
	for _, t := range concrete {
		ptr, typ := types.NewPointer(t), g.name(t.Obj())
		method := func(m *types.Func) string {
			obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
			return g.name(obj)
		}
		for _, iface := range ifaces {
			if types.Implements(ptr, iface) {
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					g.dispatch = append(g.dispatch, dispatch{typ, g.name(m), method(m)})
				}
			}
		}
		for _, iface := range foreign {
			if types.Implements(ptr, iface) {
				for i := 0; i < iface.NumMethods(); i++ {
					g.edges[typ] = append(g.edges[typ], method(iface.Method(i)))
				}
			}
		}
	}
}

// addDecl attributes what the declaration n mentions to the names it
// declares. init functions and blank declarations have no name to be
// reached by: in a linked package what they mention is reached outright.
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

// name maps an object to the node of this module that owns it: a
// package-level declaration, or a method of a package-level named type,
// interfaces included, as "import/path.Type.Method". Locals, struct
// fields (their type is mentioned wherever a value of it comes from),
// methods of unnamed interfaces and anything outside the module map to
// "".
func (g *graph) name(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != g.mod && !strings.HasPrefix(path, g.mod+"/") {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if recv := receiverType(fn); recv != nil {
			if typ := g.name(recv.Obj()); typ != "" {
				return typ + "." + fn.Name()
			}
		}
		return ""
	}
	// go/types parents init and blank functions to the package scope
	// although nothing can name them.
	if obj.Parent() != obj.Pkg().Scope() || obj.Name() == "init" || obj.Name() == "_" {
		return ""
	}
	return path + "." + obj.Name()
}

// receiverType is the named type a method is declared on, nil for a
// method of an unnamed interface.
func receiverType(fn *types.Func) *types.Named {
	t := fn.Origin().Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// TestDocCitations holds README.md, DESIGN.md and EXPERIMENTS.md to
// the tree: every Test / Benchmark / Fuzz / Example identifier they
// cite is a function in some _test.go file of the repository. The CI
// workflow and the Makefile cite names in the -run / -bench / -fuzz
// patterns of go test lines, which go test matches unanchored against
// the packages that line names, so a pattern naming a renamed or moved
// test passes silently: there a cited name must be a prefix of some
// test function in a package of the same line.
func TestDocCitations(t *testing.T) {
	funcs := map[string]bool{}
	inDir := map[string][]string{} // package directory -> its test functions
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
				inDir[filepath.Dir(path)] = append(inDir[filepath.Dir(path)], fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// onLine reports whether name prefixes a test function of a package
	// the go test command on line names: "." and "./dir" name one
	// directory, a trailing "/..." every directory under it.
	goTest := regexp.MustCompile(`(?:\$\(GO\)|\bgo) test\b(.*)`)
	onLine := func(name, line string) bool {
		m := goTest.FindStringSubmatch(line)
		if m == nil {
			return false
		}
		for _, arg := range strings.Fields(m[1]) {
			if arg != "." && !strings.HasPrefix(arg, "./") {
				continue
			}
			dir, tree := strings.CutSuffix(arg, "/...")
			dir = filepath.Clean(dir)
			for d, fns := range inDir {
				if d != dir && !(tree && (dir == "." || strings.HasPrefix(d, dir+"/"))) {
					continue
				}
				for _, fn := range fns {
					if strings.HasPrefix(fn, name) {
						return true
					}
				}
			}
		}
		return false
	}
	cited := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z]\w*`)
	for _, c := range []struct {
		files  []string
		found  func(name, line string) bool
		advice string
	}{
		{[]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, func(name, _ string) bool { return funcs[name] }, "which no _test.go file defines"},
		{[]string{".github/workflows/ci.yml", "Makefile"}, onLine, "which is the prefix of no test function in a package that line's go test names"},
	} {
		for _, file := range c.files {
			text, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(text), "\n") {
				for _, name := range cited.FindAllString(line, -1) {
					if !c.found(name, line) {
						t.Errorf("%s:%d cites %s, %s", file, i+1, name, c.advice)
					}
				}
			}
		}
	}
}

package cmpqos

// The coverage axis of the whole-tree gates (DESIGN §3.1): a statement
// that no test runs is listed in testdata/uncovered.txt with one of four
// reasons, or it gets a test, or it goes.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncoveredList is the allowed set of blocks no test runs.
const uncoveredList = "testdata/uncovered.txt"

// uncoveredReasons are the only reasons a block may stay unrun (the
// list's header says what each means).
var uncoveredReasons = map[string]bool{"io": true, "invariant": true, "stringer": true, "process": true}

// uncoveredStrict names the packages whose unrun blocks may only be io,
// invariant or stringer entries: the simulator, the admission layer and
// the workloads the paper's results pass through.
var uncoveredStrict = []string{"internal/sim/", "internal/qos/", "internal/workload/"}

// A blockKey names a coverage block by its file, its enclosing function
// and the first source line of its first statement (trimmed), so the
// list follows code that moves.
type blockKey struct{ file, fn, line string }

func (k blockKey) String() string { return k.file + "\t" + k.fn + "\t" + k.line }

// An uncoveredEntry is one line of the list.
type uncoveredEntry struct {
	blockKey
	reason string
	at     int // line of the list
}

// TestUncoveredList checks testdata/uncovered.txt. Every tier-1 run
// checks its shape: each entry names a function of a module file whose
// source holds the entry's line, gives one of the four reasons, and the simulator, qos and workload packages
// list only io, invariant and stringer blocks. With COVER_PROFILE set to
// a profile of `go test -coverpkg=./... ./...` (make cover), it merges
// the test binaries' blocks by max count and fails on every unrun block
// the list does not name and on every listed block that now runs, so the
// list only shrinks.
func TestUncoveredList(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	src := newSourceIndex(tr)
	entries, err := readUncoveredList(uncoveredList)
	if err != nil {
		t.Fatal(err)
	}
	want := map[blockKey]int{}
	for _, e := range entries {
		want[e.blockKey]++
		if !uncoveredReasons[e.reason] {
			t.Errorf("%s:%d: reason %q is none of io, invariant, stringer, process", uncoveredList, e.at, e.reason)
		}
		for _, p := range uncoveredStrict {
			if strings.HasPrefix(e.file, p) && e.reason == "process" {
				t.Errorf("%s:%d: %s may list only io, invariant and stringer blocks — test the block or delete it", uncoveredList, e.at, p)
			}
		}
		if e.reason == "invariant" && !strings.Contains(e.line, "panic(") {
			t.Errorf("%s:%d: an invariant entry names a panic, not %q", uncoveredList, e.at, e.line)
		}
		if e.reason == "stringer" && !strings.HasSuffix(e.fn, ".String") {
			t.Errorf("%s:%d: a stringer entry is in a String method, not %s", uncoveredList, e.at, e.fn)
		}
	}
	for _, e := range entries {
		if holds, ok := src.holds(e.blockKey); !ok {
			t.Errorf("%s:%d: no function %s in %s", uncoveredList, e.at, e.fn, e.file)
		} else if !holds {
			t.Errorf("%s:%d: %s has no line %q — update the entry", uncoveredList, e.at, e.fn, e.line)
		}
	}

	profile := os.Getenv("COVER_PROFILE")
	if profile == "" {
		return
	}
	blocks, err := unrunBlocks(profile, tr.mod, src)
	if err != nil {
		t.Fatal(err)
	}
	var unlisted []string
	for k, n := range blocks {
		if extra := n - want[k]; extra > 0 {
			for range extra {
				unlisted = append(unlisted, k.String())
			}
		}
	}
	sort.Strings(unlisted)
	for _, k := range unlisted {
		t.Errorf("no test runs %s — test it or delete it (or list it, if it is io, invariant, stringer or process)", k)
	}
	for _, e := range entries {
		if blocks[e.blockKey] < want[e.blockKey] {
			t.Errorf("%s:%d: %s is listed but runs (or is no block) — drop the entry", uncoveredList, e.at, e.blockKey)
			want[e.blockKey]-- // one error per surplus entry
		}
	}
}

var uncoveredLine = regexp.MustCompile(`^(\S+)\t(\S+)\t(\S+)\t(.+)$`)

// readUncoveredList parses the list: a line is a file, a function, a
// reason and a source line, tab-separated; # starts a comment line.
func readUncoveredList(name string) ([]uncoveredEntry, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []uncoveredEntry
	sc := bufio.NewScanner(f)
	for at := 1; sc.Scan(); at++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := uncoveredLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("%s:%d: want file<TAB>function<TAB>reason<TAB>line, have %q", name, at, line)
		}
		entries = append(entries, uncoveredEntry{blockKey{m[1], m[2], m[4]}, m[3], at})
	}
	return entries, sc.Err()
}

// A sourceIndex finds a module file's functions and their lines.
type sourceIndex struct {
	fset  *token.FileSet
	files map[string]*ast.File // by path relative to the module root
	text  map[string][]string  // each file's lines
}

func newSourceIndex(tr *tree) *sourceIndex {
	s := &sourceIndex{fset: tr.fset, files: map[string]*ast.File{}, text: map[string][]string{}}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			if rel, err := filepath.Rel(tr.dir, tr.fset.Position(f.Pos()).Filename); err == nil {
				s.files[filepath.ToSlash(rel)] = f
			}
		}
	}
	return s
}

func (s *sourceIndex) lines(file string) []string {
	if l, ok := s.text[file]; ok {
		return l
	}
	b, _ := os.ReadFile(s.fset.Position(s.files[file].Pos()).Filename)
	l := strings.Split(string(b), "\n")
	s.text[file] = l
	return l
}

// funcs returns the file's named functions: its function declarations
// ("Name", "Recv.Name") and the package-level variables a function
// literal initializes.
func funcs(f *ast.File) map[string]ast.Node {
	m := map[string]ast.Node{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			m[funcName(d)] = d
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						if i < len(vs.Names) {
							m[vs.Names[i].Name] = v
						}
					}
				}
			}
		}
	}
	return m
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + d.Name.Name
		}
		return d.Name.Name
	}
}

// holds reports whether a line of the function k names reads k.line
// once trimmed; ok is false when the file has no such function.
func (s *sourceIndex) holds(k blockKey) (holds, ok bool) {
	f := s.files[k.file]
	if f == nil {
		return false, false
	}
	fn := funcs(f)[k.fn]
	if fn == nil {
		return false, false
	}
	lines := s.lines(k.file)
	from, to := s.fset.Position(fn.Pos()).Line, s.fset.Position(fn.End()).Line
	for i := from; i <= to && i <= len(lines); i++ {
		if strings.TrimSpace(lines[i-1]) == k.line {
			return true, true
		}
	}
	return false, true
}

// block names the coverage block that starts at line.col of file and
// ends at endLine.endCol: the function that encloses it and the first
// line of its first statement.
func (s *sourceIndex) block(file string, line, col, endLine, endCol int) (blockKey, error) {
	f := s.files[file]
	if f == nil {
		return blockKey{}, fmt.Errorf("%s: not a module file", file)
	}
	tf := s.fset.File(f.Pos())
	start := tf.LineStart(line) + token.Pos(col-1)
	end := tf.LineStart(endLine) + token.Pos(endCol-1)
	for name, fn := range funcs(f) {
		if fn.Pos() > start || fn.End() < end {
			continue
		}
		first := token.NoPos
		ast.Inspect(fn, func(n ast.Node) bool {
			if _, body := n.(*ast.BlockStmt); body {
				return true // a function body starts at its brace, its first statement after it
			}
			if st, ok := n.(ast.Stmt); ok && st.Pos() >= start && st.Pos() < end && (first == token.NoPos || st.Pos() < first) {
				first = st.Pos()
			}
			return n != nil && n.Pos() < end && n.End() > start
		})
		if first == token.NoPos {
			return blockKey{}, fmt.Errorf("%s:%d.%d: no statement in the block", file, line, col)
		}
		return blockKey{file, name, strings.TrimSpace(s.lines(file)[s.fset.Position(first).Line-1])}, nil
	}
	return blockKey{}, fmt.Errorf("%s:%d.%d: in no function", file, line, col)
}

// unrunBlocks reads a coverage profile of the module, merges the blocks
// of its test binaries by max count and counts the blocks no binary ran,
// by name.
func unrunBlocks(profile, mod string, src *sourceIndex) (map[blockKey]int, error) {
	f, err := os.Open(profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type span struct {
		file                      string
		line, col, endLine, endCl int
	}
	count := map[span]int{}
	re := regexp.MustCompile(`^(.+):(\d+)\.(\d+),(\d+)\.(\d+) (\d+) (\d+)$`)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			continue
		}
		m := re.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("%s: not a profile line: %q", profile, line)
		}
		if m[6] == "0" {
			continue // a block with no statement
		}
		var n [6]int // line, col, end line, end col, statements, count
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+2])
		}
		file, ok := strings.CutPrefix(m[1], mod+"/")
		if !ok {
			return nil, fmt.Errorf("%s: %s is outside module %s", profile, m[1], mod)
		}
		sp := span{file, n[0], n[1], n[2], n[3]}
		count[sp] = max(count[sp], n[5])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	unrun := map[blockKey]int{}
	for sp, c := range count {
		if c > 0 {
			continue
		}
		k, err := src.block(sp.file, sp.line, sp.col, sp.endLine, sp.endCl)
		if err != nil {
			return nil, err
		}
		unrun[k]++
	}
	return unrun, nil
}

// TestUncoveredMergesByMax: a block that one test binary ran and another
// did not counts as run; one no binary ran is named by its file, its
// function and its first statement's line.
func TestUncoveredMergesByMax(t *testing.T) {
	tr, err := moduleTree()
	if err != nil {
		t.Fatal(err)
	}
	src := newSourceIndex(tr)
	const file, stmt = "internal/sim/config.go", `return fmt.Sprintf("Policy(%d)", int(p))`
	var line, col int
	for i, l := range src.lines(file) {
		if c := strings.Index(l, stmt); c >= 0 {
			line, col = i+1, c+1
		}
	}
	block := fmt.Sprintf("%s/%s:%d.%d,%d.%d 1 ", tr.mod, file, line, col, line, col+len(stmt))
	for _, c := range []struct {
		counts []string
		want   int
	}{{[]string{"0", "1"}, 0}, {[]string{"0", "0"}, 1}} {
		profile := filepath.Join(t.TempDir(), "cover.out")
		text := "mode: set\n" + block + c.counts[0] + "\n" + block + c.counts[1] + "\n"
		if err := os.WriteFile(profile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := unrunBlocks(profile, tr.mod, src)
		if err != nil {
			t.Fatal(err)
		}
		if n := got[blockKey{file, "Policy.String", stmt}]; n != c.want || len(got) != c.want {
			t.Errorf("counts %v: unrun %v, want the block %d times", c.counts, got, c.want)
		}
	}
}

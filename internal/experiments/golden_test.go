package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"cmpqos/internal/sim"
)

// update regenerates csvGoldenPath from the current code.
var update = flag.Bool("update", false, "rewrite "+csvGoldenPath+" with the current CSV exports")

// csvGoldenPath holds every CSV export of the paper-scale render, each
// after a "# name" line, in registry order. The text of every entry is
// pinned by RESULTS.txt at the repository root
// (TestResultsFileMatchesRender).
const csvGoldenPath = "testdata/csv_golden.txt"

// paperRuns is the one run cache the paper-scale render and every shape
// test share, on purpose: the shape tests read the render's grids
// through their typed results, as the experiments of one qossim process
// read each other's, so they simulate nothing the render did not.
var paperRuns = sim.NewRunCache()

// paperOpts are the options of `qossim -exp all`: the paper's 200 M
// instructions per job, the table engine, one worker, one shared cache.
func paperOpts() Options { return Options{Workers: 1, Cache: paperRuns} }

// cacheAblations are the two entries that drive the cache model
// directly: they run no simulation, so no run cache serves them, and
// they cost more than every other entry together.
var cacheAblations = map[string]bool{"ablation-partition": true, "ablation-sampling": true}

// renderedNames lists the entries the paper-scale render covers: the
// whole registry, or in -short the five that reuse fig5's grid.
func renderedNames() []string {
	if testing.Short() {
		return []string{"fig5", "fig6", "fig7", "frag", "lac"}
	}
	var names []string
	for _, r := range Registry() {
		names = append(names, r.Name)
	}
	return names
}

// rendering is one entry's output: its text, and its CSV export (nil
// when the entry has none or when it was not asked for).
type rendering struct {
	text, csv []byte
}

// renderEntry runs one registry entry under o through Run and, when
// withCSV is set and the entry exports one, CSVResult.
func renderEntry(name string, o Options, withCSV bool) (rendering, error) {
	r, ok := Lookup(name)
	if !ok {
		return rendering{}, fmt.Errorf("%s: not registered", name)
	}
	var text bytes.Buffer
	if err := r.Run(o, &text); err != nil {
		return rendering{}, fmt.Errorf("%s: %w", name, err)
	}
	if text.Len() == 0 {
		return rendering{}, fmt.Errorf("%s produced no output", name)
	}
	out := rendering{text: text.Bytes()}
	if withCSV && r.table != nil {
		tab, err := CSVResult(name, o)
		if err != nil {
			return rendering{}, fmt.Errorf("%s csv: %w", name, err)
		}
		var csv bytes.Buffer
		if err := WriteCSV(&csv, tab); err != nil {
			return rendering{}, fmt.Errorf("%s csv: %w", name, err)
		}
		out.csv = csv.Bytes()
	}
	return out, nil
}

// paperAblations computes the two cache-model ablations once per test
// binary, at workers 1: the paper-scale render prints these results and
// TestAblations reads them, so neither computes them again.
var paperAblations = sync.OnceValue(func() (a struct {
	partition *AblationPartitionResult
	sampling  *AblationSamplingResult
}) {
	var err error
	if a.partition, err = AblationPartition(paperOpts()); err != nil {
		panic(err)
	}
	if a.sampling, err = AblationSampling(paperOpts()); err != nil {
		panic(err)
	}
	return a
})

// paperRender renders the registry once per test binary under
// paperOpts, every entry's text and CSV bytes by name. The two cache
// ablations print paperAblations' results.
var paperRender = sync.OnceValues(func() (map[string]rendering, error) {
	out := map[string]rendering{}
	for _, name := range renderedNames() {
		var r rendering
		var err error
		switch name {
		case "ablation-partition":
			r = textOf(paperAblations().partition)
		case "ablation-sampling":
			r = textOf(paperAblations().sampling)
		default:
			r, err = renderEntry(name, paperOpts(), true)
		}
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
})

// textOf renders an experiment result that exports no CSV.
func textOf(res interface{ Render(io.Writer) }) rendering {
	var text bytes.Buffer
	res.Render(&text)
	return rendering{text: text.Bytes()}
}

// paperRendering returns the memoized paper-scale render, failing t if
// any entry failed.
func paperRendering(t *testing.T) map[string]rendering {
	t.Helper()
	out, err := paperRender()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// resultsSection is one experiment's text in RESULTS.txt and the line
// of the file it starts on.
type resultsSection struct {
	name, text string
	line       int
}

// resultsSections splits RESULTS.txt, `qossim -exp all`'s output, into
// its experiments' sections in file order: qossim prints an experiment's
// text, then a `[name completed in d]` line, and between two
// experiments a blank line and a divider.
func resultsSections(t *testing.T) []resultsSection {
	t.Helper()
	data, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	completed := regexp.MustCompile(`^\[(\S+) completed in [^\]]*\]\n$`)
	lines := strings.SplitAfter(string(data), "\n")
	var out []resultsSection
	start := 0
	for i, l := range lines {
		m := completed.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		out = append(out, resultsSection{name: m[1], text: strings.Join(lines[start:i], ""), line: start + 1})
		start = i + 3
		if start > len(lines) {
			break
		}
		if lines[i+1] != "\n" || strings.Trim(lines[i+2], "─\n") != "" {
			t.Fatalf("RESULTS.txt line %d: %s's section is not followed by a blank line and a divider", i+2, m[1])
		}
	}
	if start < len(lines) && strings.Join(lines[start:], "") != "" {
		t.Fatalf("RESULTS.txt line %d: text after the last experiment", start+1)
	}
	return out
}

// TestResultsFileMatchesRender pins RESULTS.txt, `qossim -exp all`'s
// output at the paper's 200 M instructions, to the paper-scale render:
// the file holds one section per registry entry, in registry order, and
// each section is its entry's text byte for byte (the `[name completed
// in d]` lines, the only text that varies between runs, are not
// compared). So the checked-in file is the golden of every experiment's
// text and of every number the documents quote. In -short it checks the
// five entries the render covers. cmd/qossim's TestResultsFileMatchesRun
// holds the command's own output to the file on those five.
func TestResultsFileMatchesRender(t *testing.T) {
	sections := resultsSections(t)
	byName := map[string]resultsSection{}
	var names []string
	for _, s := range sections {
		byName[s.name] = s
		names = append(names, s.name)
	}
	if want := renderedNames(); !testing.Short() && !slices.Equal(names, want) {
		t.Fatalf("RESULTS.txt sections %v, want the registry's %v", names, want)
	}
	render := paperRendering(t)
	for _, name := range renderedNames() {
		s, ok := byName[name]
		if !ok {
			t.Errorf("RESULTS.txt has no %s section", name)
			continue
		}
		if n, g, w, ok := firstDiff(render[name].text, []byte(s.text)); ok {
			t.Errorf("RESULTS.txt line %d (%s's section) differs from the paper-scale render\nrender: %q\nfile:   %q\nif the change means to move it, regenerate: go run ./cmd/qossim -exp all > RESULTS.txt",
				s.line+n-1, name, g, w)
		}
	}
}

// firstDiff finds the first line at which got and want part: its
// 1-based number and the two lines, "<end of text>" past either end.
// ok is false when they are equal.
func firstDiff(got, want []byte) (line int, g, w string, ok bool) {
	if bytes.Equal(got, want) {
		return 0, "", "", false
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	at := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of text>"
	}
	for i := 0; ; i++ {
		if g, w := at(gl, i), at(wl, i); g != w || i >= len(gl) || i >= len(wl) {
			return i + 1, g, w, true
		}
	}
}

// sameBytes reports, under label, the first line at which got parts
// from the paper-scale render's want.
func sameBytes(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if n, g, w, ok := firstDiff(got, want); ok {
		t.Errorf("%s differs from the paper-scale render at line %d:\n got  %q\n want %q", label, n, g, w)
	}
}

// TestGoldenTablesCacheOnVsOff checks the paper-scale render three
// ways, entry by entry: every text and CSV is byte-identical rendered
// again at 4 workers through a fresh cache shared across the entries
// (the mapMeasure and sim.RunAll fan-outs, and a cache filled by one
// worker pool read by the next entry's); every text but the two cache
// ablations' is byte-identical rendered with no cache at one worker
// (every simulation executed); and a re-render from the warm cache
// gives the same bytes and memoizes no new run. (The engine's own fast
// paths are held to its reference engine in internal/sim:
// TestFastPathsMatchReference, TestPlanCacheByteIdentity.)
func TestGoldenTablesCacheOnVsOff(t *testing.T) {
	want := paperRendering(t)
	shared := sim.NewRunCache()
	for _, name := range renderedNames() {
		t.Run(name, func(t *testing.T) {
			w := want[name]
			w4, err := renderEntry(name, Options{Workers: 4, Cache: shared}, true)
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "text at workers 4", w4.text, w.text)
			sameBytes(t, "CSV at workers 4", w4.csv, w.csv)
			if cacheAblations[name] {
				return
			}
			uncached, err := renderEntry(name, Options{Workers: 1}, false)
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "uncached text", uncached.text, w.text)
			before := paperRuns.Len()
			warm, err := renderEntry(name, paperOpts(), true)
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, "warm-cache text", warm.text, w.text)
			sameBytes(t, "warm-cache CSV", warm.csv, w.csv)
			if got := paperRuns.Len(); got != before {
				t.Errorf("warm re-render memoized %d new runs, want 0", got-before)
			}
		})
	}
}

// csvGolden lays the paper-scale render's CSV exports out as
// csvGoldenPath holds them.
func csvGolden(renders map[string]rendering) []byte {
	var b bytes.Buffer
	for _, r := range Registry() {
		if csv := renders[r.Name].csv; csv != nil {
			fmt.Fprintf(&b, "# %s\n", r.Name)
			b.Write(csv)
		}
	}
	return b.Bytes()
}

// parseCSVGolden splits csvGoldenPath's bytes into one CSV per entry.
func parseCSVGolden(data []byte) (map[string][]byte, error) {
	out := map[string][]byte{}
	var name string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			name = strings.TrimSuffix(rest, "\n")
			out[name] = []byte{}
			continue
		}
		if name == "" {
			if line == "" {
				continue
			}
			return nil, fmt.Errorf("%s: %q before the first # name line", csvGoldenPath, line)
		}
		out[name] = append(out[name], line...)
	}
	return out, nil
}

// checkCSVGolden holds the render's CSV exports to csvGoldenPath, or
// rewrites the file under -update. A failure names <entry>.csv and its
// first differing row (row 1 is the header).
func checkCSVGolden(t *testing.T, renders map[string]rendering) {
	t.Helper()
	if *update {
		if err := os.WriteFile(csvGoldenPath, csvGolden(renders), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", csvGoldenPath)
		return
	}
	data, err := os.ReadFile(csvGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := parseCSVGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	const regen = "regenerate with go test ./internal/experiments -run TestCSVExports -update"
	for _, r := range Registry() {
		got, ok := renders[r.Name].csv, want[r.Name] != nil
		switch {
		case got == nil && ok:
			t.Errorf("%s.csv: in %s, but the entry exports no CSV; %s", r.Name, csvGoldenPath, regen)
		case got != nil && !ok:
			t.Errorf("%s.csv: not in %s; %s", r.Name, csvGoldenPath, regen)
		case got != nil:
			if n, g, w, diff := firstDiff(got, want[r.Name]); diff {
				t.Errorf("%s.csv row %d differs from %s:\n got  %q\n want %q\n%s", r.Name, n, csvGoldenPath, g, w, regen)
			}
		}
		delete(want, r.Name)
	}
	for name := range want {
		t.Errorf("%s.csv: in %s, but no registry entry has that name; %s", name, csvGoldenPath, regen)
	}
}

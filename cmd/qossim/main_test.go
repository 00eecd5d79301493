package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cmpqos/internal/cli"
	"cmpqos/internal/experiments"
	"cmpqos/internal/sim"
)

// qossim runs the command in process on args and returns its two
// streams and exit status.
func qossim(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestEveryFlag passes each flag once at a small job size and checks
// what it adds to the output; the census at the end fails when a flag
// the command defines is passed by no case.
func TestEveryFlag(t *testing.T) {
	dir := t.TempDir()
	cpuProf, memProf := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	small := []string{"-instr", "1000000"}
	cases := []struct {
		args []string
		want []string // substrings of stdout
	}{
		{[]string{"-list"}, []string{"available experiments:\n", "\n  curves "}},
		{[]string{"-exp", "fig1"}, []string{"Figure 1 — ", "[fig1 completed in "}},
		{append([]string{"-exp", "fig5", "-seed", "2", "-parallel", "2",
			"-sched", sim.SchedulerNames()[0], "-alloc", sim.AllocatorNames()[0], "-admit", sim.AdmissionNames()[0]}, small...),
			[]string{"Figure 5(a) — "}},
		{append([]string{"-exp", "feedback", "-ctrl", "pid"}, small...), []string{"Feedback — "}},
		{append([]string{"-exp", "faults", "-faults", "0.5", "-fault-seed", "3"}, small...), []string{"\n      0.5  All-Strict "}},
		{append([]string{"-exp", "cluster", "-nodes", "2", "-jobs", "4", "-dispatch", "bestfit"}, small...),
			[]string{"over 2 CMP nodes (Hybrid-2, bzip2, 4 jobs)", "\nbestfit             4 "}},
		{[]string{"-exp", "table1", "-engine", "trace"}, []string{"Table 1 — "}},
		{[]string{"-exp", "curves", "-csv"}, []string{"benchmark,group,ways,calibrated,trace\nbzip2,1,1,0.95,"}},
		{[]string{"-exp", "fig1", "-timeout", "1m", "-cpuprofile", cpuProf, "-memprofile", memProf}, []string{"Figure 1 — "}},
	}
	passed := map[string]bool{}
	for _, tc := range cases {
		out, errOut, code := qossim(tc.args...)
		if code != cli.ExitOK || errOut != "" {
			t.Errorf("qossim %v: exit %d, want %d; stderr %q", tc.args, code, cli.ExitOK, errOut)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("qossim %v: stdout lacks %q:\n%s", tc.args, w, out)
			}
		}
		for _, a := range tc.args {
			if strings.HasPrefix(a, "-") {
				passed[a] = true
			}
		}
	}
	for _, f := range []string{cpuProf, memProf} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", f, err)
		}
	}

	_, usage, code := qossim("-h")
	if code != cli.ExitOK {
		t.Fatalf("qossim -h: exit %d, want %d", code, cli.ExitOK)
	}
	defined := regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage, -1)
	if len(defined) == 0 {
		t.Fatalf("qossim -h lists no flags:\n%s", usage)
	}
	for _, m := range defined {
		if !passed[m[1]] {
			t.Errorf("flag %s is passed by no case of this test", m[1])
		}
	}
}

// TestUsageErrors: a bad name or a flag combination that cannot run is
// a usage error (exit 2, nothing on stdout), and it is found before any
// profile file is created.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	cpuProf, memProf := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profiles := []string{"-cpuprofile", cpuProf, "-memprofile", memProf}
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-exp", "bogus"}, `qossim: unknown experiment "bogus"; try -list`},
		{[]string{"-exp", "all", "-csv"}, "qossim: -csv needs a single experiment name"},
		{[]string{"-exp", "fig1", "-engine", "bogus"}, `qossim: unknown engine "bogus"`},
		{[]string{"-exp", "fig1", "-sched", "bogus"}, `unknown scheduler "bogus"`},
		{[]string{"-exp", "fig1", "-nope"}, "flag provided but not defined: -nope"},
	} {
		out, errOut, code := qossim(append(tc.args, profiles...)...)
		if code != cli.ExitUsage || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("qossim %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out, errOut, cli.ExitUsage, tc.msg)
		}
		for _, f := range []string{cpuProf, memProf} {
			if _, err := os.Stat(f); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("qossim %v left %s behind (stat: %v)", tc.args, f, err)
				os.Remove(f)
			}
		}
	}
}

// TestFleetFlagsWithoutNodes: -dispatch and -jobs narrow the default
// 1/2/4-node table as they narrow a -nodes sweep, and probeall is not a
// dispatcher a user can select.
func TestFleetFlagsWithoutNodes(t *testing.T) {
	out, _, code := qossim("-exp", "cluster", "-dispatch", "worstfit")
	if code != cli.ExitOK || strings.Count(out, "  worstfit  ") != 3 || strings.Contains(out, "bestfit") {
		t.Errorf("-dispatch worstfit: exit %d, want %d and three worstfit rows:\n%s", code, cli.ExitOK, out)
	}
	out, _, code = qossim("-exp", "cluster", "-jobs", "40")
	if code != cli.ExitOK || strings.Count(out, "  bestfit            40  ") != 3 {
		t.Errorf("-jobs 40: exit %d, want %d and three 40-job rows:\n%s", code, cli.ExitOK, out)
	}
	_, errOut, code := qossim("-exp", "cluster", "-nodes", "4", "-dispatch", "probeall")
	if code != cli.ExitUsage || !strings.Contains(errOut, `unknown dispatcher "probeall"`) {
		t.Errorf("-dispatch probeall: exit %d, want %d naming the dispatcher:\n%s", code, cli.ExitUsage, errOut)
	}
}

// TestRunExperimentsRunsPastAFailure drives the -exp all loop over a
// registry slice with a failing runner in the middle: the runners after
// it must still run, the failure must be printed where its table would
// have been, and it must come back (named) so main can exit non-zero.
func TestRunExperimentsRunsPastAFailure(t *testing.T) {
	boom := errors.New("UCP-Part is a table-engine baseline")
	table := func(name string) experiments.Runner {
		return experiments.Runner{Name: name, Run: func(_ experiments.Options, w io.Writer) error {
			fmt.Fprintf(w, "table of %s\n", name)
			return nil
		}}
	}
	runners := []experiments.Runner{
		table("first"),
		{Name: "broken", Run: func(experiments.Options, io.Writer) error { return boom }},
		table("last"),
	}
	var out bytes.Buffer
	failed := runExperiments(runners, experiments.Options{}, &out)

	if len(failed) != 1 || !errors.Is(failed[0], boom) || !strings.HasPrefix(failed[0].Error(), "broken: ") {
		t.Errorf("failures = %v, want exactly [broken: %v]", failed, boom)
	}
	got := out.String()
	var at []int
	for _, want := range []string{
		"table of first\n[first completed in ",
		"[broken failed: " + boom.Error() + "]\n",
		"table of last\n[last completed in ",
	} {
		at = append(at, strings.Index(got, want))
	}
	if at[0] < 0 || at[1] < at[0] || at[2] < at[1] {
		t.Errorf("output does not show first, the failure, then last (offsets %v):\n%s", at, got)
	}
	if n := strings.Count(got, divider); n != len(runners)-1 {
		t.Errorf("%d dividers for %d experiments:\n%s", n, len(runners), got)
	}
}

// TestResultsFileMatchesRun pins RESULTS.txt to what `qossim -exp all`
// prints today, at the paper's 200M-instruction scale: the run's text is
// byte-stable across runs, binaries and -parallel apart from the
// `[name completed in d]` lines, so with those dropped from both sides
// the checked-in file is the golden of every experiment's text and of
// every number the documents quote. A failure names the experiment
// whose section holds the first differing line, and that line's number
// in RESULTS.txt.
func TestResultsFileMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at paper scale (~5 s)")
	}
	want, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	opts := experiments.Options{Engine: sim.EngineTable, Workers: 1, Cache: sim.NewRunCache()} // what run builds from the flag defaults
	if failed := runExperiments(experiments.Registry(), opts, &out); len(failed) > 0 {
		t.Fatalf("experiments failed: %v", failed)
	}
	// untimed drops the timing lines and keeps, for each other line, its
	// number in text and the experiment whose `[name completed in d]`
	// line closes its section.
	type line struct {
		text, section string
		num           int
	}
	completed := regexp.MustCompile(`^\[(\S+) completed in `)
	untimed := func(text []byte) []line {
		var lines []line
		open := 0 // first line of the section not yet closed
		for i, l := range strings.Split(string(text), "\n") {
			if m := completed.FindStringSubmatch(l); m != nil {
				for j := open; j < len(lines); j++ {
					lines[j].section = m[1] + "'s section"
				}
				open = len(lines)
				continue
			}
			lines = append(lines, line{text: l, section: "the text after the last experiment", num: i + 1})
		}
		return lines
	}
	got, exp := untimed(out.Bytes()), untimed(want)
	at := func(lines []line, i int) line {
		if i < len(lines) {
			return lines[i]
		}
		return line{text: "<end of text>", section: "past the end", num: len(strings.Split(string(want), "\n")) + 1}
	}
	for i := 0; i < max(len(got), len(exp)); i++ {
		if g, e := at(got, i), at(exp, i); g.text != e.text {
			section := e.section
			if i >= len(exp) {
				section = g.section
			}
			t.Fatalf("RESULTS.txt line %d (%s) differs from `qossim -exp all` (timing lines dropped)\nrun:  %q\nfile: %q\nif the change means to move it, regenerate: go run ./cmd/qossim -exp all > RESULTS.txt",
				e.num, section, g.text, e.text)
		}
	}
}

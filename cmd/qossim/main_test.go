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

// TestResultsFileMatchesRun holds what `qossim -exp NAME` prints at its
// flag defaults to NAME's section of RESULTS.txt, for the five entries
// that reuse fig5's grid (≈20 ms at paper scale); the `[NAME completed
// in d]` line that closes a section is its only text that varies
// between runs, and is not compared. internal/experiments'
// TestResultsFileMatchesRender holds every section to the paper-scale
// render, and TestRunExperimentsRunsPastAFailure the `-exp all` loop
// that joins the sections with dividers.
func TestResultsFileMatchesRun(t *testing.T) {
	data, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	file := string(data)
	for _, name := range []string{"fig5", "fig6", "fig7", "frag", "lac"} {
		out, errOut, code := qossim("-exp", name)
		closing := "[" + name + " completed in "
		at := strings.LastIndex(out, closing)
		if code != cli.ExitOK || errOut != "" || at < 0 {
			t.Fatalf("qossim -exp %s: exit %d, stderr %q, stdout %q", name, code, errOut, out)
		}
		end := strings.Index(file, "\n"+closing) + 1
		if end == 0 {
			t.Fatalf("RESULTS.txt has no %s section", name)
		}
		start := strings.LastIndex(file[:end], divider+"\n") + 1
		if start > 0 {
			start += len(divider)
		}
		got, want := strings.Split(out[:at], "\n"), strings.Split(file[start:end], "\n")
		for i := range max(len(got), len(want)) {
			if g, w := lineAt(got, i), lineAt(want, i); g != w {
				t.Fatalf("RESULTS.txt line %d (%s's section) differs from `qossim -exp %s`\nrun:  %q\nfile: %q\nif the change means to move it, regenerate: go run ./cmd/qossim -exp all > RESULTS.txt",
					strings.Count(file[:start], "\n")+i+1, name, name, g, w)
			}
		}
	}
}

// lineAt is lines[i], or "<end of text>" past the last line.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of text>"
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"cmpqos/internal/cli"
	"cmpqos/internal/experiments"
	"cmpqos/internal/sim"
)

// TestMain lets the test binary stand in for the command: re-executed
// with QOSSIM_AS_MAIN set it runs main on its arguments, so a test can
// observe the exit status and stderr of a usage error.
func TestMain(m *testing.M) {
	if os.Getenv("QOSSIM_AS_MAIN") != "" {
		main()
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as qossim on args and returns its
// combined output and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QOSSIM_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), cli.ExitOK
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("qossim %v: %v", args, err)
	return "", 0
}

// TestFleetFlagsWithoutNodes: -dispatch and -jobs narrow the default
// 1/2/4-node table as they narrow a -nodes sweep, and probeall is not a
// dispatcher a user can select.
func TestFleetFlagsWithoutNodes(t *testing.T) {
	out, code := runMain(t, "-exp", "cluster", "-dispatch", "worstfit")
	if code != cli.ExitOK || strings.Count(out, "  worstfit  ") != 3 || strings.Contains(out, "bestfit") {
		t.Errorf("-dispatch worstfit: exit %d, want %d and three worstfit rows:\n%s", code, cli.ExitOK, out)
	}
	out, code = runMain(t, "-exp", "cluster", "-jobs", "40")
	if code != cli.ExitOK || strings.Count(out, "  bestfit            40  ") != 3 {
		t.Errorf("-jobs 40: exit %d, want %d and three 40-job rows:\n%s", code, cli.ExitOK, out)
	}
	out, code = runMain(t, "-exp", "cluster", "-nodes", "4", "-dispatch", "probeall")
	if code != cli.ExitUsage || !strings.Contains(out, `unknown dispatcher "probeall"`) {
		t.Errorf("-dispatch probeall: exit %d, want %d naming the dispatcher:\n%s", code, cli.ExitUsage, out)
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
// the checked-in file is a diffable golden for every number the
// documents quote. To regenerate: go run ./cmd/qossim -exp all > RESULTS.txt
func TestResultsFileMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at paper scale (~5 s)")
	}
	want, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	opts := experiments.Options{Engine: sim.EngineTable, Workers: 1} // the flag defaults
	if failed := runExperiments(experiments.Registry(), opts, &out); len(failed) > 0 {
		t.Fatalf("experiments failed: %v", failed)
	}
	untimed := func(text []byte) []string {
		var lines []string
		for _, l := range strings.Split(string(text), "\n") {
			if !(strings.HasPrefix(l, "[") && strings.Contains(l, " completed in ")) {
				lines = append(lines, l)
			}
		}
		return lines
	}
	got, exp := untimed(out.Bytes()), untimed(want)
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of text>"
	}
	for i := 0; i < max(len(got), len(exp)); i++ {
		if g, e := line(got, i), line(exp, i); g != e {
			t.Fatalf("`qossim -exp all` and RESULTS.txt part at line %d (timing lines dropped; %d vs %d lines)\nrun:  %q\nfile: %q",
				i+1, len(got), len(exp), g, e)
		}
	}
}

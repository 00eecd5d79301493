package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cmpqos/internal/cli"
	"cmpqos/internal/workload"
)

// misscurve runs the command in process on args and returns its two
// streams and exit status.
func misscurve(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// row returns the numbers of the first stdout line whose label starts
// with label, or "" when there is none.
func row(out, label string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), label); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// TestEveryFlag passes each flag once at a small trace size and checks
// what it adds to the output; a -dump recorded here is then replayed and
// must measure the curve that -trace measures on the same accesses. The
// census at the end fails when a flag the command defines is passed by
// no case.
func TestEveryFlag(t *testing.T) {
	file := filepath.Join(t.TempDir(), "bzip2.trace")
	small := []string{"-warmup", "1000", "-measure", "4000"}
	cases := []struct {
		args []string
		want []string // substrings of stdout
	}{
		{nil, []string{"bzip2 (", "mcf (", "  calibrated: "}},
		{[]string{"-bench", "bzip2"}, []string{"bzip2 (", "  calibrated: "}},
		{append([]string{"-bench", "bzip2", "-trace"}, small...), []string{"  trace:      "}},
		{append([]string{"-bench", "bzip2", "-trace", "-sample-every", "8"}, small...), []string{"  trace/8    "}},
		{[]string{"-bench", "bzip2", "-dump", file, "-dump-n", "5000"}, []string{"recorded 5000 accesses of bzip2 to " + file}},
		{append([]string{"-replay", file}, small...), []string{"replayed " + file + " (5000 accesses, single-pass profiler)"}},
	}
	passed := map[string]bool{}
	outs := make([]string, len(cases))
	for i, tc := range cases {
		out, errOut, code := misscurve(tc.args...)
		outs[i] = out
		if code != cli.ExitOK || errOut != "" {
			t.Errorf("misscurve %v: exit %d, want %d; stderr %q", tc.args, code, cli.ExitOK, errOut)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("misscurve %v: stdout lacks %q:\n%s", tc.args, w, out)
			}
		}
		for _, a := range tc.args {
			if strings.HasPrefix(a, "-") {
				passed[a] = true
			}
		}
	}
	if n, want := strings.Count(outs[0], "  calibrated: "), len(workload.Profiles()); n != want {
		t.Errorf("misscurve with no flags printed %d calibrated curves, want %d", n, want)
	}
	// The recording is bzip2's stream from its first access, so replaying
	// it measures exactly the accesses -trace measures.
	traced, replayed := row(outs[2], "trace:"), row(outs[5], "trace:")
	if traced == "" || traced != replayed {
		t.Errorf("replayed curve %q, want the traced curve %q", replayed, traced)
	}

	_, usage, code := misscurve("-h")
	if code != cli.ExitOK {
		t.Fatalf("misscurve -h: exit %d, want %d", code, cli.ExitOK)
	}
	defined := regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage, -1)
	if len(defined) == 0 {
		t.Fatalf("misscurve -h lists no flags:\n%s", usage)
	}
	for _, m := range defined {
		if !passed[m[1]] {
			t.Errorf("flag %s is passed by no case of this test", m[1])
		}
	}
}

// TestUsageErrors: a bad name or a flag combination that cannot run is
// a usage error (exit 2, nothing on stdout); an unreadable trace fails
// the run (exit 1).
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-bench", "bogus"}, cli.ExitUsage, `misscurve: unknown benchmark "bogus"`},
		{[]string{"-bench", "bogus", "-dump", "x"}, cli.ExitUsage, `misscurve: unknown benchmark "bogus"`},
		{[]string{"-dump", "x"}, cli.ExitUsage, "misscurve: -dump needs -bench"},
		{[]string{"-nope"}, cli.ExitUsage, "flag provided but not defined: -nope"},
		{[]string{"-replay", filepath.Join(t.TempDir(), "missing")}, cli.ExitFailure, "misscurve: open "},
	} {
		out, errOut, code := misscurve(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("misscurve %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out, errOut, tc.code, tc.msg)
		}
	}
}

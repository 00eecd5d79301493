package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cmpqos/internal/cli"
	"cmpqos/internal/sim"
)

// trace runs qostrace in process on args and returns its two streams
// and exit status.
func trace(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestEveryFlag passes each flag once at a small job size and checks
// what it adds to the output; the census at the end fails when a flag
// the command defines is passed by no case.
func TestEveryFlag(t *testing.T) {
	cases := []struct {
		args []string
		want []string // substrings of stdout
	}{
		{[]string{"-instr", "50"}, []string{"All-Strict / bzip2 — 10 accepted jobs"}},
		{[]string{"-instr", "50", "-policy", "hybrid2", "-workload", "mix1"}, []string{"Hybrid-2 / Mix-1"}},
		{[]string{"-instr", "50", "-json"}, []string{`"policy": "All-Strict"`}},
		{[]string{"-instr", "50", "-events"}, []string{"\nevent log:\n", "  submitted\n"}},
		{[]string{"-instr", "50", "-series"}, []string{"\ntelemetry (cycle, running, waiting, reserved-ways, opp-jobs, bus-util):\n"}},
		{[]string{"-instr", "50", "-faults", "0.5", "-fault-seed", "3"}, []string{"accepted jobs"}},
		{[]string{"-instr", "50", "-sched", sim.SchedulerNames()[0], "-alloc", sim.AllocatorNames()[0], "-admit", sim.AdmissionNames()[0]}, []string{"accepted jobs"}},
		{[]string{"-instr", "50", "-width", "30"}, []string{"\njob    1 met  |=                             |\n"}},
		{[]string{"-instr", "50", "-seed", "2"}, []string{"accepted jobs"}},
		{[]string{"-instr", "50", "-timeout", "1m"}, []string{"accepted jobs"}},
	}
	passed := map[string]bool{}
	for _, tc := range cases {
		out, errOut, code := trace(tc.args...)
		if code != cli.ExitOK || errOut != "" {
			t.Errorf("qostrace %v: exit %d, want %d; stderr %q", tc.args, code, cli.ExitOK, errOut)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("qostrace %v: stdout lacks %q:\n%s", tc.args, w, out)
			}
		}
		if slices.Contains(tc.args, "-json") && !json.Valid([]byte(out)) {
			t.Errorf("qostrace %v: stdout is not one JSON value", tc.args)
		}
		for _, a := range tc.args {
			if strings.HasPrefix(a, "-") {
				passed[a] = true
			}
		}
	}

	_, usage, code := trace("-h")
	if code != cli.ExitOK {
		t.Fatalf("qostrace -h: exit %d, want %d", code, cli.ExitOK)
	}
	defined := regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage, -1)
	if len(defined) == 0 {
		t.Fatalf("qostrace -h lists no flags:\n%s", usage)
	}
	for _, m := range defined {
		if !passed[m[1]] {
			t.Errorf("flag %s is passed by no case of this test", m[1])
		}
	}
}

// TestUsageErrors: a bad name is a usage error (exit 2, nothing on
// stdout); a bad fault rate fails the run (exit 1).
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-policy", "bogus"}, cli.ExitUsage, `qostrace: unknown policy "bogus"`},
		{[]string{"-workload", "bogus"}, cli.ExitUsage, `qostrace: unknown workload "bogus"`},
		{[]string{"-sched", "bogus"}, cli.ExitUsage, `unknown scheduler "bogus"`},
		{[]string{"-nope"}, cli.ExitUsage, "flag provided but not defined: -nope"},
		{[]string{"-instr", "50", "-faults", "-1"}, cli.ExitFailure, "qostrace: fault rate must be >= 0"},
	} {
		out, errOut, code := trace(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("qostrace %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out, errOut, tc.code, tc.msg)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cmpqos/internal/cli"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
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
		{[]string{"-instr", "50"}, []string{"All-Strict / bzip2 (engine=table)\n  accepted 10 jobs"}},
		{[]string{"-instr", "50", "-policy", "hybrid2", "-workload", "mix1"}, []string{"Hybrid-2 / Mix-1 (engine=table)\n"}},
		{[]string{"-instr", "50", "-policy", "hybrid2", "-workload", "../../examples/jobs.qos"}, []string{"Hybrid-2 / jobfile (engine=table)\n  accepted 3 jobs"}},
		{[]string{"-instr", "50", "-json"}, []string{`"policy": "All-Strict"`}},
		{[]string{"-instr", "50", "-events"}, []string{"\nevent log:\n", "  submitted\n"}},
		{[]string{"-instr", "50", "-series"}, []string{"\ntelemetry (cycle, running, waiting, reserved-ways, opp-jobs, bus-util):\n"}},
		{[]string{"-instr", "50", "-faults", "0.5", "-fault-seed", "3"}, []string{"  accepted 10 jobs"}},
		{[]string{"-instr", "50", "-sched", sim.SchedulerNames()[0], "-alloc", sim.AllocatorNames()[0]}, []string{"  accepted 10 jobs"}},
		{[]string{"-instr", "50", "-ctrl", "pid"}, []string{"  accepted 10 jobs"}},
		{[]string{"-instr", "50", "-seeds", "2", "-parallel", "0"}, []string{"--- seed 1 ---\nAll-Strict", "\n\n--- seed 2 ---\nAll-Strict"}},
		{[]string{"-instr", "50", "-width", "30"}, []string{"\njob    1 met  |=                             |\n"}},
		{[]string{"-instr", "50", "-seed", "2"}, []string{"  accepted 10 jobs"}},
		{[]string{"-instr", "50", "-timeout", "1m"}, []string{"  accepted 10 jobs"}},
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

// TestUsageErrors: a bad name or a stray argument is a usage error
// (exit 2, nothing on stdout); a bad fault rate or a malformed job file
// fails the run (exit 1).
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-policy", "bogus"}, cli.ExitUsage, `qostrace: unknown policy "bogus"`},
		{[]string{"-workload", "bogus"}, cli.ExitUsage, `qostrace: unknown workload "bogus"`},
		{[]string{"-sched", "bogus"}, cli.ExitUsage, `unknown scheduler "bogus"`},
		{[]string{"-ctrl", "bogus"}, cli.ExitUsage, `unknown controller "bogus"`},
		{[]string{"-nope"}, cli.ExitUsage, "flag provided but not defined: -nope"},
		{[]string{"../../examples/jobs.qos"}, cli.ExitUsage, `qostrace: unexpected argument "../../examples/jobs.qos" (a job file is -workload FILE)`},
		{[]string{"-workload", "main.go"}, cli.ExitFailure, "qostrace: jobfile: line 1: malformed field"},
		{[]string{"-instr", "50", "-faults", "-1"}, cli.ExitFailure, "qostrace: fault rate must be >= 0"},
	} {
		out, errOut, code := trace(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("qostrace %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out, errOut, tc.code, tc.msg)
		}
	}
}

// TestPolicyAndWorkloadNames: every spelling the flags document names
// its policy or composition.
func TestPolicyAndWorkloadNames(t *testing.T) {
	for name, want := range map[string]sim.Policy{
		"all-strict": sim.AllStrict, "Hybrid-1": sim.Hybrid1, "hybrid2": sim.Hybrid2,
		"all-strict+autodown": sim.AllStrictAutoDown, "EqualPart": sim.EqualPart,
	} {
		if got, ok := parsePolicy(name); !ok || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := parsePolicy("ucp"); ok {
		t.Error("parsePolicy accepted a policy qostrace does not draw")
	}
	if w, ok := parseWorkload("MIX-2"); !ok || w.Name != workload.Mix2().Name {
		t.Errorf("parseWorkload(MIX-2) = %v, %v; want Mix-2", w.Name, ok)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunFailuresExitOne: a run that cannot finish — an invalid
// configuration, a malformed fault rate or job file, a timeout, an
// output that cannot be written — exits ExitFailure naming why.
func TestRunFailuresExitOne(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.qos")
	if err := os.WriteFile(bad, []byte("job bench=nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-instr", "-1"}, "non-positive instruction"},
		{[]string{"-faults", "-1"}, "fault rate must be >= 0"},
		{[]string{"-timeout", "1ns"}, "context deadline exceeded"},
		{[]string{"-workload", bad}, `unknown benchmark "nope"`},
	} {
		if _, errOut, code := trace(c.args...); code != cli.ExitFailure || !strings.Contains(errOut, c.msg) {
			t.Errorf("qostrace %v: exit %d, stderr %q; want exit %d naming %q", c.args, code, errOut, cli.ExitFailure, c.msg)
		}
	}
	var errOut bytes.Buffer
	if code := run([]string{"-json", "-instr", "1000000"}, failWriter{}, &errOut); code != cli.ExitFailure || !strings.Contains(errOut.String(), "disk full") {
		t.Errorf("qostrace -json to a failing writer: exit %d, stderr %q", code, errOut.String())
	}
}

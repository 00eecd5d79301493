package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cmpqos/internal/cli"
)

// ctl runs qosctl in process on args and returns its two streams and
// exit status.
func ctl(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

const jobs = "../../examples/jobs.qos"

// TestEveryFlag passes each flag once on the example job file and checks
// what it changes in the schedule; the census at the end fails when a
// flag the command defines is passed by no case.
func TestEveryFlag(t *testing.T) {
	cases := []struct {
		args []string
		want []string // substrings of stdout
	}{
		{[]string{jobs}, []string{"cluster: 2 node(s) of {cores:4 ways:16} at 2GHz\n", "\n3 accepted, 0 rejected\n"}},
		{[]string{"-negotiate", jobs}, []string{"\n3 accepted, 0 rejected\n"}},
		{[]string{"-clock", "1GHz", jobs}, []string{" at 1GHz\n", "\ncycles 0 .. 500000000 "}},
		{[]string{"-dispatch", "worstfit", jobs}, []string{"\nbatch      Elastic(5%)        1 ", "\n3 accepted, 0 rejected\n"}},
	}
	passed := map[string]bool{}
	for _, tc := range cases {
		out, errOut, code := ctl(tc.args...)
		if code != cli.ExitOK || errOut != "" {
			t.Errorf("qosctl %v: exit %d, want %d; stderr %q", tc.args, code, cli.ExitOK, errOut)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("qosctl %v: stdout lacks %q:\n%s", tc.args, w, out)
			}
		}
		for _, a := range tc.args {
			if strings.HasPrefix(a, "-") {
				passed[a] = true
			}
		}
	}

	_, usage, code := ctl("-h")
	if code != cli.ExitOK {
		t.Fatalf("qosctl -h: exit %d, want %d", code, cli.ExitOK)
	}
	defined := regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(usage, -1)
	if len(defined) == 0 {
		t.Fatalf("qosctl -h lists no flags:\n%s", usage)
	}
	for _, m := range defined {
		if !passed[m[1]] {
			t.Errorf("flag %s is passed by no case of this test", m[1])
		}
	}
}

// TestUsageErrors: a bad flag value or a missing job file argument is a
// usage error (exit 2), an unreadable job file a failure (exit 1); each
// writes nothing to stdout.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-dispatch", "nope", jobs}, cli.ExitUsage, `unknown dispatcher "nope"`},
		{[]string{"-clock", "nope", jobs}, cli.ExitUsage, `qosctl: bad clock "nope"`},
		{[]string{}, cli.ExitUsage, "usage: qosctl"},
		{[]string{"-simulate", jobs}, cli.ExitUsage, "flag provided but not defined: -simulate"},
		{[]string{"no-such-file.qos"}, cli.ExitFailure, "qosctl: open no-such-file.qos"},
	} {
		out, errOut, code := ctl(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("qosctl %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out, errOut, tc.code, tc.msg)
		}
	}
}

// TestOversubPrintsAdmittedMode: a Strict job that fits nowhere is
// admitted Opportunistically under oversub, and its line says so — the
// mode it runs in and no reserved length — with or without -negotiate.
func TestOversubPrintsAdmittedMode(t *testing.T) {
	jobs := filepath.Join(t.TempDir(), "jobs.qos")
	spec := "node count=1 cores=4 ways=16\n" +
		"job name=a bench=bzip2 mode=strict preset=medium tw=500ms deadline=1.1\n" +
		"job name=b bench=bzip2 mode=strict preset=medium tw=500ms deadline=1.1\n" +
		"job name=c bench=bzip2 mode=strict preset=medium tw=500ms deadline=1.1\n"
	if err := os.WriteFile(jobs, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ flag, outcome string }{
		{"-negotiate=false", "accepted (oversubscribed)"},
		{"-negotiate", "accepted (negotiated)"},
	} {
		out, _, code := ctl("-dispatch", "oversub", c.flag, jobs)
		var line string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "c ") {
				line = l
			}
		}
		f := strings.Fields(line)
		if code != cli.ExitOK || len(f) < 5 || f[1] != "Opportunistic" || f[4] != "-" || !strings.HasSuffix(line, c.outcome) {
			t.Errorf("-dispatch oversub %s: exit %d, job c's line %q; want it Opportunistic, no reserved length, %q:\n%s",
				c.flag, code, line, c.outcome, out)
		}
	}
}

// TestRejectionsExitThree: a job file whose jobs do not all fit exits
// ExitRejected after printing every line, and a job without a name is
// listed by its id.
func TestRejectionsExitThree(t *testing.T) {
	jobs := filepath.Join(t.TempDir(), "jobs.qos")
	spec := "node count=1 cores=2 ways=16\n" +
		"job bench=bzip2 mode=strict preset=large tw=500ms deadline=1.1\n" +
		"job name=late bench=bzip2 mode=strict preset=medium tw=500ms deadline=1.05\n"
	if err := os.WriteFile(jobs, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := ctl(jobs)
	if code != cli.ExitRejected || errOut != "" {
		t.Fatalf("exit %d, stderr %q; want %d", code, errOut, cli.ExitRejected)
	}
	for _, want := range []string{"\njob-1      Strict             0 ", "\nlate       Strict             -", "\n1 accepted, 1 rejected\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

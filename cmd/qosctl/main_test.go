package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cmpqos/internal/cli"
)

// TestMain lets the test binary stand in for the command: re-executed
// with QOSCTL_AS_MAIN set it runs main on its arguments, so a test can
// observe the exit status and stderr of a usage error.
func TestMain(m *testing.M) {
	if os.Getenv("QOSCTL_AS_MAIN") != "" {
		main()
		os.Exit(cli.ExitOK)
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as qosctl on args and returns its
// combined output and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QOSCTL_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), cli.ExitOK
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("qosctl %v: %v", args, err)
	return "", 0
}

// TestDispatchWithSimulate: -simulate runs the job file on one node, so
// a placement strategy across nodes is a usage error there rather than
// silently ignored; without -simulate the strategy places the file. So
// are the flags the simulator would ignore — a -clock other than its
// own, -negotiate — and a simulation flag without -simulate.
func TestDispatchWithSimulate(t *testing.T) {
	jobs := filepath.Join(t.TempDir(), "jobs.qos")
	spec := "node count=2 cores=4 ways=16\n" +
		"job name=db bench=bzip2 mode=strict preset=medium tw=500ms deadline=2.0\n"
	if err := os.WriteFile(jobs, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	out, code := runMain(t, "-simulate", "-dispatch", "worstfit", jobs)
	if code != cli.ExitUsage || !strings.Contains(out, "qosctl: -dispatch places across nodes; -simulate runs on one node") {
		t.Errorf("-simulate -dispatch: exit %d, want %d and the usage message:\n%s", code, cli.ExitUsage, out)
	}
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-simulate", "-clock", "1GHz"}, "qosctl: -clock 1GHz: -simulate runs the paper's 2GHz core"},
		{[]string{"-simulate", "-negotiate"}, "qosctl: -negotiate retries rejected jobs at admission; -simulate does not negotiate"},
		{[]string{"-seeds", "3"}, "qosctl: -seeds needs -simulate"},
		{[]string{"-instr", "5000000"}, "qosctl: -instr needs -simulate"},
		{[]string{"-ctrl", "pid"}, "qosctl: -ctrl needs -simulate"},
	} {
		out, code := runMain(t, append(c.args, jobs)...)
		if code != cli.ExitUsage || !strings.Contains(out, c.msg) {
			t.Errorf("%v: exit %d, want %d and %q:\n%s", c.args, code, cli.ExitUsage, c.msg, out)
		}
	}
	out, code = runMain(t, "-simulate", "-clock", "2000MHz", "-negotiate=false", "-instr", "2000000", jobs)
	if code != cli.ExitOK || !strings.Contains(out, "accepted 1 jobs") {
		t.Errorf("-simulate at the simulator's clock: exit %d, want %d and the report:\n%s", code, cli.ExitOK, out)
	}
	out, code = runMain(t, "-dispatch", "nope", jobs)
	if code != cli.ExitUsage || !strings.Contains(out, `unknown dispatcher "nope"`) {
		t.Errorf("-dispatch nope: exit %d, want %d naming the dispatcher:\n%s", code, cli.ExitUsage, out)
	}
	out, code = runMain(t, "-dispatch", "worstfit", jobs)
	if code != cli.ExitOK || !strings.Contains(out, "1 accepted, 0 rejected") {
		t.Errorf("-dispatch worstfit: exit %d, want %d and the schedule:\n%s", code, cli.ExitOK, out)
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
		out, code := runMain(t, "-dispatch", "oversub", c.flag, jobs)
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

package main

import (
	"bytes"
	"strings"
	"testing"

	"cmpqos/internal/cli"
)

// TestUsageErrors: a missing state directory or a bad clock is a usage
// error (exit 2) found before the daemon opens any state; stdout stays
// empty and stderr names the problem.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{}, "qosd: -dir is required"},
		{[]string{"-dir", dir, "-clock", "nope"}, `qosd: bad clock "nope"`},
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != cli.ExitUsage || out.Len() != 0 || !strings.Contains(errOut.String(), tc.msg) {
			t.Errorf("qosd %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out.String(), errOut.String(), cli.ExitUsage, tc.msg)
		}
	}
}

// TestCapacityAboveBound: a -cores or -ways above qos.MaxCapacity is
// refused by server.New with a message (exit 1), not a panic, and
// nothing goes to stdout. The listen address is invalid, so a daemon
// that took the capacity fails to listen instead of serving.
func TestCapacityAboveBound(t *testing.T) {
	for _, flag := range []string{"-cores", "-ways"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-dir", t.TempDir(), "-addr", "127.0.0.1:-1", flag, "1073741824"}, &out, &errOut)
		if code != cli.ExitFailure || out.Len() != 0 || !strings.Contains(errOut.String(), "above 1073741823") {
			t.Errorf("qosd %s 1073741824: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming the bound",
				flag, code, out.String(), errOut.String(), cli.ExitFailure)
		}
	}
}

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

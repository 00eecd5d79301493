package main

import (
	"bytes"
	"strings"
	"testing"

	"cmpqos/internal/cli"
)

// TestUsageErrors: an empty or unknown -mix, and -chaos without its
// daemon, are usage errors (exit 2) found before any request is sent;
// stdout stays empty and stderr names the problem.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-mix", ""}, `qosload: empty -mix ""`},
		{[]string{"-mix", "bogus"}, `qosload: unknown mode "bogus" in -mix`},
		{[]string{"-chaos"}, "qosload: -chaos needs -qosd and -dir"},
		{[]string{"-nope"}, "flag provided but not defined: -nope"},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != cli.ExitUsage || out.Len() != 0 || !strings.Contains(errOut.String(), tc.msg) {
			t.Errorf("qosload %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr naming %q",
				tc.args, code, out.String(), errOut.String(), cli.ExitUsage, tc.msg)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"cmpqos/internal/cli"
	"cmpqos/internal/load"
	"cmpqos/internal/server"
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

// TestLoadAgainstADaemon: qosload drives a daemon and prints its report,
// as a table or as JSON; against no daemon it exits ExitUnavailable,
// and without an address it fails.
func TestLoadAgainstADaemon(t *testing.T) {
	s, err := server.New(server.Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out, errOut bytes.Buffer
	if code := run([]string{"-url", ts.URL, "-n", "12", "-c", "2"}, &out, &errOut); code != cli.ExitOK {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), " admitted (") || !strings.Contains(out.String(), "\nopportunistic       4 ") {
		t.Errorf("table report:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-url", ts.URL, "-n", "3", "-c", "1", "-mix", "strict", "-json"}, &out, &errOut); code != cli.ExitOK {
		t.Fatalf("-json: exit %d, stderr %q", code, errOut.String())
	}
	var rep load.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil || rep.Admitted != 3 {
		t.Errorf("-json report %q (%v), want 3 admitted", out.String(), err)
	}
	if code := run([]string{"-url", "http://127.0.0.1:1", "-n", "2", "-retries", "0", "-timeout", "200ms"}, &out, &errOut); code != cli.ExitUnavailable {
		t.Errorf("no daemon: exit %d, want %d", code, cli.ExitUnavailable)
	}
	errOut.Reset()
	if code := run([]string{"-url", ""}, &out, &errOut); code != cli.ExitFailure || !strings.Contains(errOut.String(), "BaseURL is required") {
		t.Errorf("no address: exit %d, stderr %q", code, errOut.String())
	}
}

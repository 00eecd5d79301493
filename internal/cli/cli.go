// Package cli holds the conventions shared by every cmpqos command:
// the process exit codes (documented in the README) and small helpers
// for the flags that several commands implement identically, such as
// -timeout and -faults.
package cli

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cmpqos/internal/fault"
)

// Exit codes common to qossim, qosctl, qostrace, and misscurve.
const (
	// ExitOK: the command did what was asked.
	ExitOK = 0
	// ExitFailure: a runtime failure — I/O error, simulation error,
	// timeout, or cancellation.
	ExitFailure = 1
	// ExitUsage: the invocation itself was wrong — unknown flag value,
	// unknown experiment/benchmark/policy, malformed input file.
	ExitUsage = 2
	// ExitRejected: the run succeeded but admission control rejected at
	// least one job (qosctl only) — distinct from failure so scripts can
	// tell "the negotiation said no" from "the tool broke".
	ExitRejected = 3
	// ExitUnavailable: the target service refused to serve — qosload
	// reports it when every request was shed or the daemon was
	// unreachable, distinct from ExitFailure so scripts can tell "the
	// daemon said not now" from "the tool broke".
	ExitUnavailable = 4
)

// Fail prints "prog: err" to stderr and exits with ExitFailure.
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(ExitFailure)
}

// Usage prints "prog: msg" to stderr and exits with ExitUsage.
func Usage(prog, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, args...))
	os.Exit(ExitUsage)
}

// Context resolves a -timeout flag value into a context: zero means no
// deadline (background). The returned cancel func must be called (or
// deferred) even when timeout is zero.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), timeout)
}

// ParseFaultPlan resolves a -faults flag value. A number is a rate of
// generated fault events per gigacycle (seeded with seed over the
// default horizon, against a machine with the given core and way
// counts); anything else is the path of a fault-plan file in
// fault.ParsePlan syntax. An empty value is the empty plan.
func ParseFaultPlan(val string, seed int64, cores, ways int) (fault.Plan, error) {
	if val == "" {
		return fault.Plan{}, nil
	}
	if rate, err := strconv.ParseFloat(val, 64); err == nil {
		if rate < 0 {
			return fault.Plan{}, fmt.Errorf("fault rate must be >= 0, got %v", rate)
		}
		return fault.Generate(seed, rate, fault.DefaultHorizon, cores, ways), nil
	}
	data, err := os.ReadFile(val)
	if err != nil {
		return fault.Plan{}, fmt.Errorf("reading fault plan: %w", err)
	}
	p, err := fault.ParsePlan(string(data))
	if err != nil {
		return fault.Plan{}, fmt.Errorf("%s: %w", val, err)
	}
	return p, nil
}

// ParseClock resolves a -clock flag value like "2GHz", "800MHz", or a
// bare hertz count into a frequency. Shared by qosctl, qosd, and
// qosload so every command accepts the same spellings.
func ParseClock(s string) (float64, error) {
	up := strings.ToUpper(strings.TrimSpace(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(up, "GHZ"):
		mult = 1e9
		up = strings.TrimSuffix(up, "GHZ")
	case strings.HasSuffix(up, "MHZ"):
		mult = 1e6
		up = strings.TrimSuffix(up, "MHZ")
	case strings.HasSuffix(up, "HZ"):
		up = strings.TrimSuffix(up, "HZ")
	}
	var f float64
	if _, err := fmt.Sscanf(up, "%g", &f); err != nil || f <= 0 {
		return 0, fmt.Errorf("bad clock %q", s)
	}
	return f * mult, nil
}

// PolicyList renders a policy name list for flag help text.
func PolicyList(names []string) string {
	return strings.Join(names, "|")
}

package sim

// The guards only an edge of the input reaches: each test runs its
// guard and fails when the guard goes.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cmpqos/internal/fault"
	"cmpqos/internal/qos"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// TestConfigValidationNamesEachReject: every reject of Validate fires on
// its own input, with its own message (a dropped check lets the config
// through or answers with another check's message).
func TestConfigValidationNamesEachReject(t *testing.T) {
	wayFault := fault.Plan{Events: []fault.Event{{Kind: fault.WayFault, At: 1, Ways: 2}}}
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.L2.Ways = 0 }, "cache:"},
		{func(c *Config) { c.Faults = fault.Plan{Events: []fault.Event{{Kind: fault.CoreFail, At: 1, Core: 99}}} }, "out of range [0,"},
		{func(c *Config) { *c = TraceConfig(c.Policy, c.Workload); c.Faults = wayFault }, "way-fault events require the table engine"},
		{func(c *Config) { c.RequestWays = c.L2.Ways + 1 }, "request ways"},
		{func(c *Config) { c.DeadlineFactor = -1 }, "negative deadline factor"},
		{func(c *Config) { c.FoldCompleted, c.RecordSeries = true, true }, "incompatible with RecordSeries"},
		{func(c *Config) { c.CtrlIntervalCycles = -1 }, "negative controller interval"},
		{func(c *Config) {
			c.Script = []ScriptedJob{{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: -1}}
		}, "negative timing"},
	}
	for _, tc := range cases {
		cfg := fastConfig(AllStrict, workload.Single("bzip2"))
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate() = %v, want an error naming %q", err, tc.want)
		}
	}
}

// TestCompletionLandsInItsEpoch: a job whose last instruction costs more
// than its share of a timeshared core completes at the end of the epoch
// it finished in, not sharers × its cycles later.
func TestCompletionLandsInItsEpoch(t *testing.T) {
	r, err := New(fastConfig(AllStrict, workload.Single("bzip2")))
	if err != nil {
		t.Fatal(err)
	}
	E := r.cfg.EpochCycles
	r.now = 5 * E
	j := &Job{ID: 1, Mode: qos.Opportunistic(), State: StateRunning, InstrTotal: 1, InstrDone: 1}
	r.finishJob(j, E/8, 8, E/4)
	if j.State != StateDone || j.Completed != r.now+E {
		t.Errorf("job completed at %d (%v), want %d: the end of its epoch", j.Completed, j.State, r.now+E)
	}
}

// TestRefitBudgetsAtLeastAnEpoch: a renegotiated job with almost no work
// left is budgeted one epoch, the engine's grain, not the few cycles its
// last instructions take.
func TestRefitBudgetsAtLeastAnEpoch(t *testing.T) {
	r, err := New(fastConfig(AllStrict, workload.Single("bzip2")))
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{Profile: r.tmpl[0].prof, InstrTotal: 1000, InstrDone: 999}
	if tw := r.refitTW(j, 4); tw != r.cfg.EpochCycles {
		t.Errorf("refitTW with one instruction left = %d, want one epoch (%d)", tw, r.cfg.EpochCycles)
	}
}

// TestTraceBudgetProbeWindowIsBounded: the trace engine budgets tw from
// a cold-start probe over the job's own accesses, bounded to [20k, 400k]
// accesses. Past either bound the probed miss ratio no longer moves, so
// twice the instructions is twice the budget.
func TestTraceBudgetProbeWindowIsBounded(t *testing.T) {
	tw := func(instr int64) int64 {
		cfg := TraceConfig(AllStrict, workload.Single("bzip2")) // 0.0275 L2 accesses an instruction
		cfg.JobInstr = instr
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.tmpl[0].tw
	}
	for _, instr := range []int64{200_000, 20_000_000} { // 5.5k and 550k accesses
		if one, two := tw(instr), tw(2*instr); two-2*one > 1 || 2*one-two > 1 {
			t.Errorf("tw at %d instructions = %d, at twice that %d: not twice", instr, one, two)
		}
	}
}

// TestFaultRecoveryBeforeInjectionAtOneCycle: when one core recovers at
// the cycle another fails, the recovery applies first, so no instant has
// both down beside the core that stays down. The run must match the one
// whose second failure comes a cycle later (the engine applies both in
// the same epoch, in cycle order), and differ from the one where it
// comes a cycle earlier.
func TestFaultRecoveryBeforeInjectionAtOneCycle(t *testing.T) {
	run := func(gap int64) *Report {
		cfg := fastConfig(AllStrict, workload.Single("bzip2"))
		E := cfg.EpochCycles
		cfg.Faults = fault.Plan{Events: []fault.Event{
			{Kind: fault.CoreFail, At: 40 * E, Core: 2},
			{Kind: fault.CoreFail, At: 40 * E, Duration: 20 * E, Core: 0},
			{Kind: fault.CoreFail, At: 60*E + gap, Duration: 20 * E, Core: 1},
		}}
		return mustRun(t, cfg)
	}
	same, later, earlier := run(0), run(1), run(-1)
	if earlier.Faults == later.Faults {
		t.Fatalf("three cores down for a cycle changed nothing (%+v); the case shows no order", later.Faults)
	}
	if same.Faults != later.Faults || same.Summary() != later.Summary() {
		t.Errorf("coincident recovery and failure: %+v, a cycle apart: %+v", same.Faults, later.Faults)
	}
}

// TestSummaryNamesFaults: a faulted run's summary carries its fault line.
func TestSummaryNamesFaults(t *testing.T) {
	cfg := fastConfig(AllStrict, workload.Single("bzip2"))
	cfg.Faults = fault.Plan{Events: []fault.Event{{Kind: fault.CoreFail, At: 40 * cfg.EpochCycles, Core: 0}}}
	rep := mustRun(t, cfg)
	if !strings.Contains(rep.Summary(), "\n  faults: 1 core, 0 way, 0 spike; evicted ") {
		t.Errorf("summary of a faulted run has no fault line:\n%s", rep.Summary())
	}
}

// TestEmptyReportRates: a report with no cycles has zero throughput and
// zero speedup, not NaN.
func TestEmptyReportRates(t *testing.T) {
	var empty Report
	if got := empty.Throughput(); got != 0 {
		t.Errorf("Throughput() = %v, want 0", got)
	}
	if got := empty.Speedup(&Report{TotalCycles: 100}); got != 0 {
		t.Errorf("Speedup() = %v, want 0", got)
	}
}

// TestInvalidConfigRefusedEverywhere: the run cache and the cluster
// constructor refuse an invalid configuration before running anything.
func TestInvalidConfigRefusedEverywhere(t *testing.T) {
	bad := fastConfig(AllStrict, workload.Single("bzip2"))
	bad.Cores = 0
	if _, err := RunAll(context.Background(), 1, NewRunCache(), []Config{bad}); err == nil || !strings.Contains(err.Error(), "core count 0") {
		t.Errorf("RunAll of an invalid configuration = %v, want its validation error", err)
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 1, Node: bad, AcceptTarget: 1}); err == nil || !strings.Contains(err.Error(), "core count 0") {
		t.Errorf("NewCluster of invalid nodes = %v, want their validation error", err)
	}
}

// TestSafetyHorizon: a run whose work outlasts the horizon stops with an
// error: a node, a fleet node running its last job, and a fleet whose
// arrivals, each with a deadline before its own budget ends, are all
// refused until they come after the horizon.
func TestSafetyHorizon(t *testing.T) {
	cfg := fastConfig(AllStrict, workload.Single("bzip2"))
	cfg.JobInstr = maxCycles
	cfg.AcceptTarget = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), "safety horizon") {
		t.Errorf("node past the horizon: %v, want a safety-horizon error", err)
	}
	hopeless := cfg
	hopeless.JobInstr = maxCycles / 64
	hopeless.DeadlineFactor = 0.5
	for _, c := range []ClusterConfig{
		{Nodes: 1, Node: cfg, AcceptTarget: 1},
		{Nodes: 1, Node: hopeless, AcceptTarget: 1},
	} {
		cr, err := NewCluster(c)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { _, err := cr.Run(); done <- err }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "safety horizon") {
				t.Errorf("fleet past the horizon (accept target %d): %v, want a safety-horizon error", c.AcceptTarget, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("fleet past the horizon (accept target %d) still running after 10 s", c.AcceptTarget)
		}
	}
}

// cancelOn cancels a context at the first event of its kind.
type cancelOn struct {
	kind   trace.EventKind
	cancel context.CancelFunc
}

func (c cancelOn) Event(ev trace.Event) {
	if ev.Kind == c.kind {
		c.cancel()
	}
}

// TestCancellationLandsAfterAWindow: a context canceled mid-run stops
// the node after the next fast-forwarded window, not at the next
// 64-epoch poll.
func TestCancellationLandsAfterAWindow(t *testing.T) {
	r, err := New(fastConfig(AllStrict, workload.Single("bzip2")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.AddSink(cancelOn{trace.Started, cancel})
	if _, err := r.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext canceled at the first start = %v, want %v", err, context.Canceled)
	}
	if r.nSkipped == 0 || r.nStepped >= 64 {
		t.Errorf("stopped after %d stepped and %d skipped epochs; want a window and under 64 steps", r.nStepped, r.nSkipped)
	}
}

// TestFleetCancellationInTheDrain: a fleet canceled in the drain stops
// there — inside a node's run, at its 64-epoch poll, or between the
// drain's two passes.
func TestFleetCancellationInTheDrain(t *testing.T) {
	for _, c := range []struct {
		name string
		node Config
		kind trace.EventKind
	}{
		// The trace engine steps every epoch: the node is canceled at its
		// first completion with many epochs to go.
		{"mid-node", TraceConfig(AllStrict, workload.Single("bzip2")), trace.Completed},
		// A table-engine node's drain is a few windows: canceled at its
		// last completion, the first pass ends and the second refuses.
		{"between-passes", fastConfig(AllStrict, workload.Single("bzip2")), trace.Completed},
	} {
		node := c.node
		node.JobInstr = 2_000_000
		cfg := ClusterConfig{Nodes: 1, Node: node, AcceptTarget: 1}
		if c.name == "mid-node" {
			cfg.AcceptTarget = 4
		}
		cr, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cr.nodes[0].AddSink(cancelOn{c.kind, cancel})
		_, err = cr.RunParallel(ctx, 1)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: %v, want %v", c.name, err, context.Canceled)
		}
		// Mid-node, the node stops at its next 64-epoch poll with work
		// left; between passes, the first pass ran it idle.
		if live := cr.nodes[0].liveCount() > 0; live != (c.name == "mid-node") {
			t.Errorf("%s: node left with live jobs = %v", c.name, live)
		}
	}
}

// TestFleetViolationAtCycleZeroIsFaultAttributed: a fault in a fleet's
// first epoch evicts a job the node admitted at cycle 0 and no narrower
// slot meets its deadline, so the job is violated at cycle 0. Its
// lifetime runs to its deadline, not to cycle 0, so the fault that
// lands later in the epoch counts the miss.
func TestFleetViolationAtCycleZeroIsFaultAttributed(t *testing.T) {
	node := fastConfig(AllStrict, workload.Single("bzip2"))
	node.RequestWays = 12
	node.DeadlineFactor = 1.05
	node.Faults = fault.Plan{Events: []fault.Event{{Kind: fault.WayFault, At: node.EpochCycles / 2, Ways: 14}}}
	cr, err := NewCluster(ClusterConfig{Nodes: 1, Node: node, AcceptTarget: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 1 {
		t.Fatalf("%d violations, want the one at cycle 0", rep.Violations)
	}
	if got := cr.nodes[0].report().Faults.MissesInFaultWindows; got != 1 {
		t.Errorf("%d fault-window misses, want 1: the violated job's lifetime ends at its deadline", got)
	}
}

// TestRunContextCanceledBeforeTheFirstEpoch: a canceled context stops a
// run before it steps.
func TestRunContextCanceledBeforeTheFirstEpoch(t *testing.T) {
	r, err := New(fastConfig(AllStrict, workload.Single("bzip2")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext(canceled) = %v, want %v", err, context.Canceled)
	}
	if r.now != 0 {
		t.Errorf("a canceled run stepped to cycle %d", r.now)
	}
}

package sim

import (
	"fmt"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// planCacheCfg is the shared scenario base: the whole-simulation
// benchmark config, which exercises arrivals, rejections, starts,
// steals, rollbacks, and completions in one run.
func planCacheCfg(pol Policy, bench string) Config {
	cfg := DefaultConfig(pol, workload.Single(bench))
	cfg.JobInstr = 10_000_000
	cfg.StealIntervalInstr = 100_000
	return cfg
}

// wallClockCfg is planCacheCfg under Hybrid-2 with wall-clock
// enforcement and the first job slot overrunning its budget threefold.
func wallClockCfg() Config {
	cfg := planCacheCfg(Hybrid2, "bzip2")
	cfg.EnforceWallClock = true
	cfg.overrunFactor = 3
	cfg.overrunJobSlot = 0
	return cfg
}

// refCases is every hand-built configuration held to the reference,
// one list, each case with all it must show. The plan cache's cases
// each show the class of invalidating event they are there for:
// accepted arrivals, completions, steal adjusts, steal rollbacks,
// automatic downgrade plus switch-back, wall-clock termination, and the
// no-admission policies, whose plans change only on arrival and
// completion. The fast-forward must also skip epochs in those, on
// phased profiles and on scripted arrivals. The closed-loop cases, a
// fault storm and bursty arrivals under pid and aimd, must retune and
// skip: controller ticks are QoS events, which cap every window at the
// next tick. Each fault event kind, with its recovery, must fire in its
// case. The rest are the configuration shapes the experiment registry
// runs: the geometry sweep's other L2 sizes, the policies sweep's
// scheduler×allocator pairs on Mix-1, series sampling and the trace
// engine. The last three are window proofs the other cases never
// reach, each the one case that fails without a test of the proof: a
// bus whose period-2 cycle straddles saturation (1.6 GB/s, against
// every other case's 6.4), a phased job that crosses its phase between
// the two epochs of a period-2 cycle, and 64-cycle epochs in which a
// job's share rounds to no instruction.
func refCases() []refCase {
	done := []trace.EventKind{trace.Accepted, trace.Completed}
	cases := []refCase{
		{name: "arrivals-completions-steals-rollbacks", cfg: planCacheCfg(Hybrid2, "bzip2"), skips: true,
			events: []trace.EventKind{trace.Accepted, trace.Rejected, trace.Completed, trace.StealWay, trace.RollbackSteal}},
		{name: "autodown-switchback", cfg: planCacheCfg(AllStrictAutoDown, "bzip2"), skips: true,
			events: []trace.EventKind{trace.Downgraded, trace.SwitchedBack, trace.Completed}},
		{name: "wallclock-termination", cfg: wallClockCfg(), skips: true,
			events: []trace.EventKind{trace.Terminated, trace.Completed}},
		{name: "equalpart", cfg: planCacheCfg(EqualPart, "gobmk"), events: done, skips: true},
		{name: "ucp", cfg: planCacheCfg(UCPPart, "gobmk"), events: done, skips: true},
		{name: "phased-profiles", cfg: fastConfig(AllStrict, phased("bzip2")), skips: true},
		{name: "scripted-arrivals", cfg: scriptedCfg(), skips: true},
	}
	series := planCacheCfg(Hybrid2, "bzip2")
	series.RecordSeries = true
	cases = append(cases, refCase{name: "series-sampling", cfg: series, events: done})
	for _, g := range []struct{ mb, ways int }{{1, 8}, {4, 32}} {
		cfg := planCacheCfg(Hybrid2, "bzip2")
		cfg.L2.SizeBytes, cfg.L2.Ways, cfg.RequestWays = g.mb<<20, g.ways, g.ways*7/16
		cases = append(cases, refCase{name: fmt.Sprintf("geometry-%dMB-%dway", g.mb, g.ways), cfg: cfg,
			events: []trace.EventKind{trace.Accepted, trace.Completed, trace.StealWay}})
	}
	for _, g := range []struct{ sched, alloc string }{{"reserved", "ucp"}, {"packed", "reserved"}, {"packed", "ucp"}} {
		cfg := fastConfig(Hybrid2, workload.Mix1())
		cfg.Scheduler, cfg.Allocator = g.sched, g.alloc
		cases = append(cases, refCase{name: "pipeline-" + g.sched + "-" + g.alloc, cfg: cfg, events: done})
	}
	for _, ctrl := range []string{"pid", "aimd"} {
		cases = append(cases,
			refCase{name: ctrl + "-fault-storm", cfg: ctrlStormCfg(ctrl), retunes: true, skips: true,
				events: []trace.EventKind{trace.WayFault, trace.CoreFail, trace.Completed}},
			refCase{name: ctrl + "-bursty-arrivals", cfg: ctrlBurstCfg(ctrl), events: done, retunes: true, skips: true})
	}
	traced := TraceConfig(Hybrid2, workload.Single("bzip2"))
	traced.JobInstr = 1_000_000
	traced.StealIntervalInstr = 50_000
	cases = append(cases, refCase{name: "trace-engine", cfg: traced, events: done})
	faulted := func(name string, ev fault.Event, kinds ...trace.EventKind) refCase {
		return refCase{name: name, cfg: faultCfg(AllStrictAutoDown, fault.Plan{Events: []fault.Event{ev}}), events: kinds}
	}
	cases = append(cases,
		faulted("core-fail-permanent", fault.Event{Kind: fault.CoreFail, At: 200_000_000, Core: 2}, trace.CoreFail),
		faulted("core-fail-recover", fault.Event{Kind: fault.CoreFail, At: 200_000_000, Duration: 300_000_000, Core: 1},
			trace.CoreFail, trace.CoreRecover),
		faulted("way-fault-recover", fault.Event{Kind: fault.WayFault, At: 300_000_000, Duration: 400_000_000, Ways: 6},
			trace.WayFault, trace.WayRecover),
		faulted("latency-spike", fault.Event{Kind: fault.LatencySpike, At: 100_000_000, Duration: 500_000_000, Factor: 3},
			trace.LatencySpike),
		faulted("violation-terminates", fault.Event{Kind: fault.WayFault, At: 300_000_000, Duration: 2_000_000_000, Ways: 14},
			trace.WayFault, trace.QoSViolation, trace.Terminated))
	straddle := planCacheCfg(Hybrid2, "mcf")
	straddle.Mem.PeakBytesPerS = 1.6e9
	phasedP2 := DefaultConfig(AllStrictAutoDown, phased("libquantum"))
	phasedP2.Seed = 3
	tiny := DefaultConfig(Hybrid2, workload.Single("mcf"))
	tiny.EpochCycles, tiny.JobInstr, tiny.StealIntervalInstr = 64, 20_000, 10_000
	return append(cases,
		refCase{name: "saturated-straddle", cfg: straddle, events: done, skips: true, straddles: true},
		refCase{name: "phased-period-2", cfg: phasedP2, events: done, skips: true, phaseP2: true},
		refCase{name: "zero-share", cfg: tiny, events: done, skips: true, zeroShare: true})
}

// TestPlanCacheByteIdentity holds every refCases case to the reference
// engine, whose plan never holds: the epoch-plan cache and every fast
// path that hangs off it must leave each run's report, event log and
// LAC counters as they are. The tests that cite some of the cases by
// name (TestEventSkipByteIdentity, TestControllerSkipByteIdentity,
// TestFaultPlanCacheInvalidation) share their runs.
func TestPlanCacheByteIdentity(t *testing.T) {
	matchCases(t, refCases())
}

// TestPlanCacheReusesPlans asserts the cache actually engages: in the
// benchmark scenario most epochs must reuse the cached plan rather than
// rebuild (otherwise the caching is dead code and the byte-identity test
// proves nothing).
func TestPlanCacheReusesPlans(t *testing.T) {
	r, err := New(planCacheCfg(Hybrid2, "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	epochs, rebuilds := 0, 0
	for !r.done() {
		if !(r.planOK && r.now < r.planWake && !r.planWaysDirty) {
			rebuilds++
		}
		epochs++
		r.step()
	}
	if epochs == 0 {
		t.Fatal("simulation made no epochs")
	}
	if frac := float64(rebuilds) / float64(epochs); frac > 0.5 {
		t.Errorf("plan rebuilt in %d/%d epochs (%.0f%%); cache never engages", rebuilds, epochs, 100*frac)
	}
}

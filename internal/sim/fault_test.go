package sim

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// faultCfg is the shared fault-scenario base: the paper-scale table run
// (fast enough per run that tests use it directly) with the given plan.
func faultCfg(pol Policy, plan fault.Plan) Config {
	cfg := DefaultConfig(pol, workload.Single("bzip2"))
	cfg.Faults = plan
	return cfg
}

// TestFaultEvictReadmit drives the graceful path: a permanent way fault
// shrinks the cache under the standing reservations, the timeline evicts,
// and the LAC re-places the evicted jobs (at the original or a narrower
// renegotiated width) instead of terminating them.
func TestFaultEvictReadmit(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.WayFault, At: 300_000_000, Ways: 6},
	}}
	rep := mustRun(t, faultCfg(AllStrict, plan))
	f := rep.Faults
	if f.WayFaults != 1 {
		t.Fatalf("WayFaults = %d, want 1", f.WayFaults)
	}
	if f.Evictions == 0 {
		t.Fatal("way fault evicted nothing; scenario does not exercise the refit path")
	}
	if f.Readmitted == 0 {
		t.Errorf("no evicted job was readmitted (evictions=%d violations=%d)",
			f.Evictions, f.Violations)
	}
}

// TestFaultEvictionAccounting pins the refit invariant: every evicted
// job is either readmitted or terminated with a violation — never lost.
func TestFaultEvictionAccounting(t *testing.T) {
	for _, pol := range []Policy{AllStrict, AllStrictAutoDown, Hybrid1, Hybrid2} {
		for seed := int64(1); seed <= 3; seed++ {
			plan := fault.Generate(seed, 4, fault.DefaultHorizon, 4, 16)
			rep := mustRun(t, faultCfg(pol, plan))
			f := rep.Faults
			if f.Evictions != f.Readmitted+f.Violations {
				t.Errorf("%s seed %d: evictions %d != readmitted %d + violations %d",
					pol, seed, f.Evictions, f.Readmitted, f.Violations)
			}
			if f.AutoDowngrades > f.Readmitted {
				t.Errorf("%s seed %d: autodowngrades %d > readmitted %d",
					pol, seed, f.AutoDowngrades, f.Readmitted)
			}
		}
	}
}

// TestFaultViolation drives the hard path: a near-total way fault (long
// enough to outlast every standing deadline) leaves too little cache for
// the standing contracts, so the framework must record QoS violations
// rather than pretend. The fault is transient — a permanent one would
// also starve all later arrivals and the run could never reach its
// accept target.
func TestFaultViolation(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.WayFault, At: 300_000_000, Duration: 2_000_000_000, Ways: 14},
	}}
	rep, rec := mustRunLogged(t, faultCfg(AllStrict, plan))
	if rep.Faults.Violations == 0 {
		t.Errorf("14 dark ways produced no violation (evictions=%d readmitted=%d)",
			rep.Faults.Evictions, rep.Faults.Readmitted)
	}
	if countEvents(rec.Events(), trace.QoSViolation) != rep.Faults.Violations {
		t.Errorf("trace has %d QoSViolation events, stats say %d",
			countEvents(rec.Events(), trace.QoSViolation), rep.Faults.Violations)
	}
}

// TestFaultCoreFailRecover checks the transient core path: the core goes
// down, displaced work resumes elsewhere or waits, and recovery restores
// capacity — both transitions visible in the trace.
func TestFaultCoreFailRecover(t *testing.T) {
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.CoreFail, At: 200_000_000, Duration: 400_000_000, Core: 1},
	}}
	rep, rec := mustRunLogged(t, faultCfg(Hybrid2, plan))
	f := rep.Faults
	if f.CoreFails != 1 || f.CoreRecovers != 1 {
		t.Fatalf("CoreFails=%d CoreRecovers=%d, want 1/1", f.CoreFails, f.CoreRecovers)
	}
	if countEvents(rec.Events(), trace.CoreFail) != 1 || countEvents(rec.Events(), trace.CoreRecover) != 1 {
		t.Errorf("trace CoreFail/CoreRecover = %d/%d, want 1/1",
			countEvents(rec.Events(), trace.CoreFail), countEvents(rec.Events(), trace.CoreRecover))
	}
}

// TestFaultLatencySpikeSlowsRun checks the spike path: while active, the
// miss penalty scales, so the run takes strictly longer than fault-free.
func TestFaultLatencySpikeSlowsRun(t *testing.T) {
	base := mustRun(t, faultCfg(AllStrict, fault.Plan{}))
	// The spike must cover the final job's reserved slot: reservation
	// start times are fixed at admission, so a spike that ends earlier
	// only slows jobs whose completions the last slot already hides.
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.LatencySpike, At: 100_000_000, Duration: 3_500_000_000, Factor: 4},
	}}
	spiked := mustRun(t, faultCfg(AllStrict, plan))
	if spiked.Faults.LatencySpikes != 1 {
		t.Fatalf("LatencySpikes = %d, want 1", spiked.Faults.LatencySpikes)
	}
	if spiked.TotalCycles <= base.TotalCycles {
		t.Errorf("total cycles with 4x latency spike %d <= fault-free %d",
			spiked.TotalCycles, base.TotalCycles)
	}
}

// TestFaultPlanCacheInvalidation is the tentpole composition guarantee:
// for every fault event kind (and its recovery), a refCases run
// matches the reference engine, and the case demonstrably fires that
// kind (asserted via the trace).
func TestFaultPlanCacheInvalidation(t *testing.T) {
	matchCases(t, pickCases(t, "core-fail-permanent", "core-fail-recover", "way-fault-recover", "latency-spike",
		"violation-terminates"))
}

// TestFaultSeedByteIdentityAcrossWorkers is the reproducibility golden:
// the same seeded fault plan yields bit-identical reports and traces at
// any worker count.
func TestFaultSeedByteIdentityAcrossWorkers(t *testing.T) {
	var cfgs []Config
	for _, pol := range []Policy{AllStrict, AllStrictAutoDown, Hybrid1, Hybrid2} {
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, faultCfg(pol,
				fault.Generate(seed, 4, fault.DefaultHorizon, 4, 16)))
		}
	}
	render := func(workers int) [][]byte {
		reps, logs := runAllLogged(t, workers, cfgs)
		out := make([][]byte, len(reps))
		for i, rep := range reps {
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			for _, e := range logs[i].Events() {
				fmt.Fprintf(&buf, "%d %d %d %d %v\n", e.Cycle, e.JobID, e.Kind, e.Detail, e.DeadlineMet)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	serial := render(1)
	for _, workers := range []int{4, 8} {
		got := render(workers)
		for i := range serial {
			if !bytes.Equal(serial[i], got[i]) {
				t.Errorf("config %d: output at %d workers differs from serial", i, workers)
			}
		}
	}
}

// TestRunCacheKeyIncludesFaultPlan pins the memoization contract: two
// configs differing only in their fault plan must not share a cache
// entry.
func TestRunCacheKeyIncludesFaultPlan(t *testing.T) {
	cache := NewRunCache()
	a := faultCfg(AllStrict, fault.Generate(1, 4, fault.DefaultHorizon, 4, 16))
	b := faultCfg(AllStrict, fault.Generate(2, 4, fault.DefaultHorizon, 4, 16))
	if a.CacheKey() == b.CacheKey() {
		t.Fatal("different fault plans share a cache key")
	}
	if _, err := cache.Run(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Run(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2 (plans must not collide)", got)
	}
	if _, err := cache.Run(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != 2 {
		t.Errorf("Len() after repeat = %d, want 2 (identical plan must hit)", got)
	}
}

// TestNoFaultPlanIsFreeOfFaultEvents confirms the zero value changes
// nothing: an empty plan produces no fault trace events and no fault
// stats, so fault-free runs stay byte-compatible with pre-fault output.
func TestNoFaultPlanIsFreeOfFaultEvents(t *testing.T) {
	rep, log := mustRunLogged(t, faultCfg(Hybrid2, fault.Plan{}))
	if rep.Faults != (FaultStats{}) {
		t.Errorf("empty plan produced fault stats: %+v", rep.Faults)
	}
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.CoreFail, trace.CoreRecover, trace.WayFault, trace.WayRecover,
			trace.LatencySpike, trace.AutoDowngrade, trace.QoSViolation:
			t.Fatalf("empty plan produced fault event %v", e.Kind)
		}
	}
}

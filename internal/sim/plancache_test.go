package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

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

// runWithPlanCache runs cfg on the production path or, with disable set,
// stepped with the plan rebuilt every epoch, and returns the canonical
// JSON rendering plus the full event trace.
func runWithPlanCache(t *testing.T, cfg Config, disable bool) ([]byte, []trace.Event) {
	t.Helper()
	js, events, _ := runEngine(t, cfg, disable, disable)
	return js, events
}

// TestPlanCacheByteIdentity verifies the tentpole invariant: with the
// epoch-plan cache enabled, every simulation is byte-for-byte identical
// to the uncached run. Each scenario is chosen so a specific class of
// invalidating event demonstrably fires (asserted via the event trace),
// covering every invalidation path: accepted arrivals, completions,
// steal adjusts, steal rollbacks, automatic downgrade plus switch-back,
// and wall-clock termination — plus the no-admission policies whose
// plans only change on arrival/completion.
func TestPlanCacheByteIdentity(t *testing.T) {
	type planCase struct {
		name   string
		cfg    Config
		events []trace.EventKind // kinds that must occur for the scenario to count
	}
	cases := []planCase{
		{
			name: "arrivals-completions-steals-rollbacks",
			cfg:  planCacheCfg(Hybrid2, "bzip2"),
			events: []trace.EventKind{trace.Accepted, trace.Rejected,
				trace.Completed, trace.StealWay, trace.RollbackSteal},
		},
		{
			name:   "autodown-switchback",
			cfg:    planCacheCfg(AllStrictAutoDown, "bzip2"),
			events: []trace.EventKind{trace.Downgraded, trace.SwitchedBack, trace.Completed},
		},
		{
			name: "wallclock-termination",
			cfg: func() Config {
				cfg := planCacheCfg(Hybrid2, "bzip2")
				cfg.EnforceWallClock = true
				cfg.overrunFactor = 3
				cfg.overrunJobSlot = 0
				return cfg
			}(),
			events: []trace.EventKind{trace.Terminated, trace.Completed},
		},
		{
			name:   "equalpart",
			cfg:    planCacheCfg(EqualPart, "gobmk"),
			events: []trace.EventKind{trace.Accepted, trace.Completed},
		},
		{
			name:   "ucp",
			cfg:    planCacheCfg(UCPPart, "gobmk"),
			events: []trace.EventKind{trace.Accepted, trace.Completed},
		},
		{
			name: "series-sampling",
			cfg: func() Config {
				cfg := planCacheCfg(Hybrid2, "bzip2")
				cfg.RecordSeries = true
				return cfg
			}(),
			events: []trace.EventKind{trace.Accepted, trace.Completed},
		},
	}
	// Config shapes the experiment registry runs and the scenarios above
	// do not: the geometry sweep's other L2 sizes, the policies sweep's
	// scheduler×allocator pairs on Mix-1, the feedback experiment's
	// closed-loop cells (fault storm and scripted bursts), the trace
	// engine.
	for _, g := range []struct{ mb, ways int }{{1, 8}, {4, 32}} {
		cfg := planCacheCfg(Hybrid2, "bzip2")
		cfg.L2.SizeBytes, cfg.L2.Ways, cfg.RequestWays = g.mb<<20, g.ways, g.ways*7/16
		cases = append(cases, planCase{
			name: fmt.Sprintf("geometry-%dMB-%dway", g.mb, g.ways), cfg: cfg,
			events: []trace.EventKind{trace.Accepted, trace.Completed, trace.StealWay},
		})
	}
	for _, g := range []struct{ sched, alloc string }{{"reserved", "ucp"}, {"packed", "reserved"}, {"packed", "ucp"}} {
		cfg := fastConfig(Hybrid2, workload.Mix1())
		cfg.Scheduler, cfg.Allocator = g.sched, g.alloc
		cases = append(cases, planCase{
			name: "pipeline-" + g.sched + "-" + g.alloc, cfg: cfg,
			events: []trace.EventKind{trace.Accepted, trace.Completed},
		})
	}
	for _, ctrl := range []string{"pid", "aimd"} {
		cases = append(cases,
			planCase{name: ctrl + "-fault-storm", cfg: ctrlStormCfg(ctrl),
				events: []trace.EventKind{trace.WayFault, trace.CoreFail, trace.Completed}},
			planCase{name: ctrl + "-bursty-arrivals", cfg: ctrlBurstCfg(ctrl),
				events: []trace.EventKind{trace.Accepted, trace.Completed}})
	}
	traced := TraceConfig(Hybrid2, workload.Single("bzip2"))
	traced.JobInstr = 1_000_000
	traced.StealIntervalInstr = 50_000
	cases = append(cases, planCase{name: "trace-engine", cfg: traced,
		events: []trace.EventKind{trace.Accepted, trace.Completed}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cachedJSON, cachedEvents := runWithPlanCache(t, tc.cfg, false)
			plainJSON, plainEvents := runWithPlanCache(t, tc.cfg, true)
			if !bytes.Equal(cachedJSON, plainJSON) {
				t.Errorf("report JSON differs between plan cache on and off\non:  %s\noff: %s",
					cachedJSON, plainJSON)
			}
			if !reflect.DeepEqual(cachedEvents, plainEvents) {
				t.Errorf("event traces differ: %d events cached vs %d uncached",
					len(cachedEvents), len(plainEvents))
			}
			for _, k := range tc.events {
				if countEvents(cachedEvents, k) == 0 {
					t.Errorf("scenario never produced a %v event; it does not exercise that invalidation path", k)
				}
			}
		})
	}
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

// TestPlanCacheDisabledRebuildsEveryEpoch pins the reference switch the
// differential tests lean on: with rebuildPlans set, planOK must never
// hold.
func TestPlanCacheDisabledRebuildsEveryEpoch(t *testing.T) {
	r, err := New(planCacheCfg(Hybrid2, "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	r.rebuildPlans = true
	for !r.done() {
		r.step()
		if r.planOK {
			t.Fatal("planOK held with rebuildPlans set")
		}
	}
}

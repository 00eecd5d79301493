package sim

import (
	"testing"

	"cmpqos/internal/qos"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// These tests cross-cut the simulator's subsystems: engines × policies ×
// workloads × optional features, asserting the invariants that must hold
// everywhere rather than figure-specific shapes.

func TestTraceEngineMixedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("trace engine is slow")
	}
	for _, mix := range []workload.Composition{workload.Mix1(), workload.Mix2()} {
		cfg := TraceConfig(Hybrid2, mix)
		rep := mustRun(t, cfg)
		if rep.DeadlineHitRate != 1.0 {
			t.Errorf("%s trace hit rate = %v, want 1.0", mix.Name, rep.DeadlineHitRate)
		}
		if len(rep.Jobs) != 10 {
			t.Errorf("%s accepted %d jobs", mix.Name, len(rep.Jobs))
		}
	}
}

func TestTraceEngineEqualPart(t *testing.T) {
	if testing.Short() {
		t.Skip("trace engine is slow")
	}
	cfg := TraceConfig(EqualPart, workload.Single("gobmk"))
	rep := mustRun(t, cfg)
	if rep.Rejected != 0 || len(rep.Jobs) != 10 {
		t.Fatalf("EqualPart trace: accepted %d rejected %d", len(rep.Jobs), rep.Rejected)
	}
	// EqualPart gives every core an equal partition; jobs run to
	// completion with substantial timesharing slowdown.
	s := rep.WallClockByMode["EqualPart"]
	if s == nil || s.Count() != 10 {
		t.Fatal("missing EqualPart wall-clock summary")
	}
}

func TestEnforcementCoversElasticBudget(t *testing.T) {
	// An Elastic overrunner gets the stretched budget tw·(1+X) before
	// termination; a Strict one gets only tw.
	mk := func(hint workload.ModeHint) Config {
		w := workload.Composition{Name: "enf"}
		for i := 0; i < 10; i++ {
			h := workload.HintStrict
			if i == 0 {
				h = hint
			}
			w.Jobs = append(w.Jobs, workload.JobTemplate{Benchmark: "bzip2", Hint: h})
		}
		cfg := fastConfig(Hybrid2, w)
		cfg.EnforceWallClock = true
		cfg.overrunJobSlot = 0
		cfg.overrunFactor = 3
		return cfg
	}
	strictRep := mustRun(t, mk(workload.HintStrict))
	elasticRep := mustRun(t, mk(workload.HintElastic))
	find := func(rep *Report) JobResult {
		for _, j := range rep.Jobs {
			if j.Terminated {
				return j
			}
		}
		t.Fatal("no terminated job")
		return JobResult{}
	}
	st := find(strictRep)
	el := find(elasticRep)
	if el.WallClock <= st.WallClock {
		t.Errorf("elastic budget %d should exceed strict %d (tw·(1+X) vs tw)",
			el.WallClock, st.WallClock)
	}
}

func TestStealingPausesUnderSaturation(t *testing.T) {
	// With the bus forced into saturation (tiny peak bandwidth), the
	// controller must not start new stealing episodes; with a normal
	// bus it steals freely. Compare steal-event counts.
	base := fastConfig(Hybrid2, workload.Single("mcf"))
	base.TwMargin = 2.0 // contention headroom so jobs still admit/finish
	normal, normalLog := mustRunLogged(t, base)

	sat := base
	sat.Mem.PeakBytesPerS = 0.4e9 // mcf alone exceeds this: permanent saturation
	// tw must budget the saturated miss penalty (capped at 4x base).
	sat.TwMargin = 4.5
	satRep, satLog := mustRunLogged(t, sat)

	satSteals, steals := countEvents(satLog.Events(), trace.StealWay), countEvents(normalLog.Events(), trace.StealWay)
	if satSteals >= steals && steals > 0 {
		t.Errorf("saturated bus should suppress stealing: %d vs %d", satSteals, steals)
	}
	// Deadlines still hold in both (tw was budgeted with margin).
	if normal.DeadlineHitRate != 1.0 || satRep.DeadlineHitRate != 1.0 {
		t.Errorf("hit rates = %v / %v", normal.DeadlineHitRate, satRep.DeadlineHitRate)
	}
}

func TestFragmentationFractionsBounded(t *testing.T) {
	// Property: every fragmentation fraction lies in [0, 1] for every
	// policy and workload combination.
	for _, pol := range append(Policies(), UCPPart) {
		for _, w := range []workload.Composition{workload.Single("bzip2"), workload.Mix1()} {
			cfg := fastConfig(pol, w)
			rep := mustRun(t, cfg)
			f := rep.Frag
			for name, v := range map[string]float64{
				"external-cores": f.ExternalCores,
				"external-ways":  f.ExternalWays,
				"internal-ways":  f.InternalWays,
			} {
				if v < 0 || v > 1 {
					t.Errorf("%v/%s: %s = %v out of [0,1]", pol, w.Name, name, v)
				}
			}
		}
	}
}

func TestSeriesRecording(t *testing.T) {
	cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
	cfg.RecordSeries = true
	rep := mustRun(t, cfg)
	if len(rep.Series) == 0 {
		t.Fatal("no series recorded")
	}
	last := int64(-1)
	for _, s := range rep.Series {
		if s.Cycle <= last {
			t.Fatal("series cycles not strictly increasing")
		}
		last = s.Cycle
		if s.Running < 0 || s.Running > 10 || s.ReservedWays > cfg.L2.Ways {
			t.Errorf("implausible sample %+v", s)
		}
		if s.BusUtil < 0 || s.BusUtil > 1 {
			t.Errorf("bus utilization %v out of range", s.BusUtil)
		}
	}
	// Without the flag, no series.
	plain := mustRun(t, fastConfig(Hybrid2, workload.Single("bzip2")))
	if len(plain.Series) != 0 {
		t.Error("series recorded without the flag")
	}
}

func TestReportInternalConsistency(t *testing.T) {
	for _, pol := range Policies() {
		rep := mustRun(t, fastConfig(pol, workload.Single("hmmer")))
		var maxDone int64
		deadlines := map[int]int64{}
		for _, l := range rep.Lanes {
			deadlines[l.JobID] = l.Deadline
		}
		for _, j := range rep.Jobs {
			if j.Completed > maxDone {
				maxDone = j.Completed
			}
			if j.Completed < j.Started || j.Started < j.Arrival {
				t.Errorf("%v job %d: times out of order (%d/%d/%d)",
					pol, j.ID, j.Arrival, j.Started, j.Completed)
			}
			if d, ok := deadlines[j.ID]; !ok || d != j.Deadline {
				t.Errorf("%v job %d: lane deadline %d (present %v), want %d", pol, j.ID, d, ok, j.Deadline)
			}
		}
		if rep.TotalCycles != maxDone {
			t.Errorf("%v: total %d != last completion %d", pol, rep.TotalCycles, maxDone)
		}
		if rep.Throughput() <= 0 {
			t.Errorf("%v: non-positive throughput", pol)
		}
	}
}

func TestClusterWithAutoDowngrade(t *testing.T) {
	cfg := ClusterConfig{
		Nodes:        2,
		Node:         fastConfig(AllStrictAutoDown, workload.Single("bzip2")),
		AcceptTarget: 20,
	}
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 20 || rep.DeadlineHitRate != 1.0 {
		t.Fatalf("accepted=%d hit=%v", rep.Accepted, rep.DeadlineHitRate)
	}
	if rep.AutoDowngraded == 0 {
		t.Error("no jobs auto-downgraded across the cluster")
	}
}

func TestOpportunisticJobsExcludedFromGuarantee(t *testing.T) {
	// The hit-rate denominator is reserved jobs only (paper §7.1): even
	// when every opportunistic job misses, QoS policies report 100%.
	rep := mustRun(t, fastConfig(Hybrid1, workload.Single("bzip2")))
	missedOpp := 0
	for _, j := range rep.Jobs {
		if j.Mode.Kind == qos.KindOpportunistic && !j.Met {
			missedOpp++
		}
	}
	if missedOpp == 0 {
		t.Skip("opportunistic jobs all met their deadlines this run")
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("hit rate %v should exclude opportunistic misses", rep.DeadlineHitRate)
	}
}

package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cmpqos/internal/parallel"
	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

// fastConfig scales a configuration down for test speed while keeping
// every relative quantity (deadlines scale with tw).
func fastConfig(p Policy, w workload.Composition) Config {
	cfg := DefaultConfig(p, w)
	cfg.JobInstr = 10_000_000
	cfg.StealIntervalInstr = 500_000
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// mustRunLogged is mustRun with the event log attached.
func mustRunLogged(t *testing.T, cfg Config) (*Report, *EventLog) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &EventLog{}
	r.AddSink(log)
	rep, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, log
}

// runAllLogged is RunAll with an event log attached to every run.
func runAllLogged(t *testing.T, workers int, cfgs []Config) ([]*Report, []*EventLog) {
	t.Helper()
	logs := make([]*EventLog, len(cfgs))
	reps, err := parallel.Map(context.Background(), parallel.New(workers), len(cfgs), func(i int) (*Report, error) {
		r, err := New(cfgs[i])
		if err != nil {
			return nil, err
		}
		logs[i] = &EventLog{}
		r.AddSink(logs[i])
		return r.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	return reps, logs
}

func TestConfigValidation(t *testing.T) {
	good := fastConfig(AllStrict, workload.Single("bzip2"))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.JobInstr = 0 },
		func(c *Config) { c.EpochCycles = 0 },
		func(c *Config) { c.StealIntervalInstr = -1 },
		func(c *Config) { c.ElasticSlack = 0 },
		func(c *Config) { c.ElasticSlack = 2 },
		func(c *Config) { c.TwMargin = 0.9 },
		func(c *Config) { c.AcceptTarget = 0 },
		func(c *Config) { c.Mem.PeakBytesPerS = 0 },
		func(c *Config) { c.Workload.Jobs = nil },
		func(c *Config) { c.Workload.Jobs[0].Benchmark = "nope" },
		func(c *Config) { c.L2.Owners = 2 },
	}
	for i, mut := range mutations {
		cfg := fastConfig(AllStrict, workload.Single("bzip2"))
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestScaleJobs: ScaleJobs keeps the paper's 1% repartitioning
// granularity — DefaultConfig's 2 M at its 200 M instructions — clamped
// to one instruction, so a 50-instruction job validates and runs too.
func TestScaleJobs(t *testing.T) {
	for _, c := range []struct{ instr, interval int64 }{{50, 1}, {200_000_000, 2_000_000}} {
		cfg := DefaultConfig(Hybrid2, workload.Mix1())
		cfg.ScaleJobs(c.instr)
		if cfg.JobInstr != c.instr || cfg.StealIntervalInstr != c.interval {
			t.Errorf("ScaleJobs(%d): JobInstr %d, StealIntervalInstr %d, want %d, %d",
				c.instr, cfg.JobInstr, cfg.StealIntervalInstr, c.instr, c.interval)
		}
		if rep := mustRun(t, cfg); rep.AcceptedJobs == 0 {
			t.Errorf("ScaleJobs(%d): no job accepted", c.instr)
		}
	}
}

func TestPolicyStringsAndModeMapping(t *testing.T) {
	names := map[Policy]string{
		AllStrict: "All-Strict", Hybrid1: "Hybrid-1", Hybrid2: "Hybrid-2",
		AllStrictAutoDown: "All-Strict+AutoDown", EqualPart: "EqualPart",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d: name %q, want %q", int(p), p.String(), want)
		}
	}
	cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
	if m := cfg.ModeForHint(workload.HintElastic); m.Kind != qos.KindElastic || m.Slack != cfg.ElasticSlack {
		t.Errorf("hybrid2 elastic hint -> %v", m)
	}
	if m := cfg.ModeForHint(workload.HintOpportunistic); m.Kind != qos.KindOpportunistic {
		t.Errorf("hybrid2 opportunistic hint -> %v", m)
	}
	cfg.Policy = Hybrid1
	if m := cfg.ModeForHint(workload.HintElastic); m.Kind != qos.KindStrict {
		t.Errorf("hybrid1 must not honor elastic hints: %v", m)
	}
	cfg.Policy = AllStrict
	if m := cfg.ModeForHint(workload.HintOpportunistic); m.Kind != qos.KindStrict {
		t.Errorf("all-strict must ignore hints: %v", m)
	}
}

func TestAllStrictMeetsAllDeadlines(t *testing.T) {
	rep := mustRun(t, fastConfig(AllStrict, workload.Single("bzip2")))
	if len(rep.Jobs) != 10 {
		t.Fatalf("accepted %d jobs, want 10", len(rep.Jobs))
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("deadline hit rate = %v, want 1.0 (Figure 5a)", rep.DeadlineHitRate)
	}
	for _, j := range rep.Jobs {
		if j.Mode.Kind != qos.KindStrict {
			t.Errorf("job %d mode %v in All-Strict", j.ID, j.Mode)
		}
		if !j.Met {
			t.Errorf("job %d missed its deadline", j.ID)
		}
	}
	// Strict jobs have short, almost-constant wall-clock (Figure 6):
	// spread within 5% of the mean.
	s := rep.WallClockByMode["Strict"]
	if s == nil || s.Count() != 10 {
		t.Fatal("missing Strict wall-clock summary")
	}
	if spread := (s.Max() - s.Min()) / s.Mean(); spread > 0.05 {
		t.Errorf("strict wall-clock spread = %v, want < 5%%", spread)
	}
}

func TestHybridModesCompositionOverAccepted(t *testing.T) {
	rep := mustRun(t, fastConfig(Hybrid2, workload.Single("bzip2")))
	counts := map[qos.Kind]int{}
	for _, j := range rep.Jobs {
		counts[j.Mode.Kind]++
	}
	if counts[qos.KindStrict] != 4 || counts[qos.KindElastic] != 3 || counts[qos.KindOpportunistic] != 3 {
		t.Errorf("accepted mode mix = %v, want 4/3/3 (Table 2 Hybrid-2)", counts)
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("hybrid-2 reserved-job hit rate = %v, want 1.0", rep.DeadlineHitRate)
	}
}

func TestThroughputOrderingAcrossPolicies(t *testing.T) {
	// Figure 5b's qualitative ordering for a single-benchmark workload:
	// every optimization beats All-Strict, and Hybrid-2 is at least as
	// good as Hybrid-1 (they are nearly equal for single workloads).
	reps := map[Policy]*Report{}
	for _, p := range Policies() {
		reps[p] = mustRun(t, fastConfig(p, workload.Single("gobmk")))
	}
	base := reps[AllStrict].TotalCycles
	for _, p := range []Policy{Hybrid1, Hybrid2, AllStrictAutoDown, EqualPart} {
		if reps[p].TotalCycles >= base {
			t.Errorf("%v total %d not better than All-Strict %d", p, reps[p].TotalCycles, base)
		}
	}
	// EqualPart is the throughput ceiling for the insensitive benchmark.
	for _, p := range []Policy{Hybrid1, AllStrictAutoDown} {
		if reps[EqualPart].TotalCycles > reps[p].TotalCycles {
			t.Errorf("EqualPart (%d) should beat %v (%d) for gobmk",
				reps[EqualPart].TotalCycles, p, reps[p].TotalCycles)
		}
	}
	// QoS configurations keep 100% deadline hit rate; EqualPart does not.
	for _, p := range []Policy{AllStrict, Hybrid1, Hybrid2, AllStrictAutoDown} {
		if reps[p].DeadlineHitRate != 1.0 {
			t.Errorf("%v hit rate = %v, want 1.0", p, reps[p].DeadlineHitRate)
		}
	}
	if reps[EqualPart].DeadlineHitRate > 0.7 {
		t.Errorf("EqualPart hit rate = %v, want well below 1.0", reps[EqualPart].DeadlineHitRate)
	}
}

func TestAutoDowngradeBehaviour(t *testing.T) {
	rep := mustRun(t, fastConfig(AllStrictAutoDown, workload.Single("bzip2")))
	if rep.DeadlineHitRate != 1.0 {
		t.Fatalf("auto-downgrade violated deadlines: %v", rep.DeadlineHitRate)
	}
	downs := 0
	for _, j := range rep.Jobs {
		if j.AutoDowngraded {
			downs++
			if j.DlClass == workload.DeadlineTight {
				t.Errorf("job %d: tight-deadline job was auto-downgraded (Table 2 forbids)", j.ID)
			}
		}
	}
	if downs == 0 {
		t.Error("no jobs were auto-downgraded")
	}
	// AutoDown increases wall-clock variation versus All-Strict (Fig 6).
	base := mustRun(t, fastConfig(AllStrict, workload.Single("bzip2")))
	sBase := base.WallClockByMode["Strict"]
	sDown := rep.WallClockByMode["AutoDown"]
	if sDown == nil {
		t.Fatal("no AutoDown wall-clock summary")
	}
	if sDown.Max()-sDown.Min() <= sBase.Max()-sBase.Min() {
		t.Error("auto-downgraded jobs should show larger wall-clock variation")
	}
	// And throughput improves.
	if rep.TotalCycles >= base.TotalCycles {
		t.Errorf("AutoDown total %d not better than All-Strict %d", rep.TotalCycles, base.TotalCycles)
	}
}

func TestElasticStealingBounds(t *testing.T) {
	// Figure 8a: the Elastic jobs' cumulative miss increase stays near
	// or below X, and their CPI increase is strictly smaller.
	for _, x := range []float64{0.05, 0.10, 0.20} {
		cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
		cfg.ElasticSlack = x
		rep := mustRun(t, cfg)
		if rep.ElasticMissIncrease <= 0 {
			t.Errorf("X=%v: no miss increase measured — stealing inactive?", x)
		}
		// The rollback happens one interval after crossing X, so allow a
		// 30% relative overshoot margin.
		if rep.ElasticMissIncrease > x*1.3 {
			t.Errorf("X=%v: miss increase %v exceeds the bound", x, rep.ElasticMissIncrease)
		}
		if rep.ElasticCPIIncrease >= rep.ElasticMissIncrease {
			t.Errorf("X=%v: CPI increase %v not below miss increase %v (additive CPI property)",
				x, rep.ElasticCPIIncrease, rep.ElasticMissIncrease)
		}
		if rep.DeadlineHitRate != 1.0 {
			t.Errorf("X=%v: stealing violated deadlines", x)
		}
	}
}

func TestStealingDisabledAblation(t *testing.T) {
	on := mustRun(t, fastConfig(Hybrid2, workload.Single("bzip2")))
	cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
	cfg.DisableStealing = true
	off := mustRun(t, cfg)
	if off.ElasticMissIncrease != 0 {
		t.Errorf("disabled stealing still increased misses: %v", off.ElasticMissIncrease)
	}
	// With stealing on, opportunistic jobs get extra capacity: their
	// mean wall-clock must not be worse.
	if on.OppWallClock.Mean() > off.OppWallClock.Mean()*1.02 {
		t.Errorf("stealing should help opportunistic jobs: on=%v off=%v",
			on.OppWallClock.Mean(), off.OppWallClock.Mean())
	}
}

func TestEqualPartAcceptsEverything(t *testing.T) {
	rep := mustRun(t, fastConfig(EqualPart, workload.Single("hmmer")))
	if rep.Rejected != 0 {
		t.Errorf("EqualPart rejected %d jobs; it has no admission control", rep.Rejected)
	}
	if len(rep.Jobs) != 10 {
		t.Errorf("accepted %d, want 10", len(rep.Jobs))
	}
	// Without reservations, wall-clock variation is high (Figure 6).
	s := rep.WallClockByMode["EqualPart"]
	if s.Max()/s.Min() < 1.1 {
		t.Errorf("EqualPart wall-clock too uniform: min=%v max=%v", s.Min(), s.Max())
	}
}

func TestMixedWorkloads(t *testing.T) {
	// Figure 9: both mixes keep 100% reserved-job deadline hit rate
	// under Hybrid-2, and Mix-1 (favourable) benefits from stealing at
	// least as much as Mix-2.
	m1 := mustRun(t, fastConfig(Hybrid2, workload.Mix1()))
	m2 := mustRun(t, fastConfig(Hybrid2, workload.Mix2()))
	if m1.DeadlineHitRate != 1.0 || m2.DeadlineHitRate != 1.0 {
		t.Errorf("mixed workload hit rates = %v/%v, want 1.0", m1.DeadlineHitRate, m2.DeadlineHitRate)
	}
	base1 := mustRun(t, fastConfig(AllStrict, workload.Mix1()))
	base2 := mustRun(t, fastConfig(AllStrict, workload.Mix2()))
	s1 := m1.Speedup(base1)
	s2 := m2.Speedup(base2)
	if s1 <= 1 || s2 <= 1 {
		t.Errorf("hybrid-2 speedups = %v/%v, want > 1", s1, s2)
	}
	// §7.4's core claim: resource stealing is more effective for Mix-1
	// (insensitive donor, sensitive recipient) than for Mix-2. Measure
	// the stealing benefit as Hybrid-2's gain over Hybrid-1 per mix.
	h11 := mustRun(t, fastConfig(Hybrid1, workload.Mix1()))
	h12 := mustRun(t, fastConfig(Hybrid1, workload.Mix2()))
	gain1 := float64(h11.TotalCycles) / float64(m1.TotalCycles)
	gain2 := float64(h12.TotalCycles) / float64(m2.TotalCycles)
	if gain1 <= gain2 {
		t.Errorf("stealing benefit for Mix-1 (%v) should exceed Mix-2 (%v)", gain1, gain2)
	}
	if gain1 < 1.05 {
		t.Errorf("Mix-1 stealing benefit %v too small; expected a clear gain", gain1)
	}
}

func TestLACOccupancyUnderOnePercent(t *testing.T) {
	// §7.5 with full-length jobs: occupancy < 1% of wall-clock.
	cfg := DefaultConfig(AllStrict, workload.Single("bzip2"))
	cfg.JobInstr = 50_000_000
	rep := mustRun(t, cfg)
	if rep.LACOccupancy >= 0.01 {
		t.Errorf("LAC occupancy = %v, want < 1%%", rep.LACOccupancy)
	}
	if rep.LACProbes == 0 {
		t.Error("no probes recorded")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, fastConfig(Hybrid2, workload.Single("bzip2")))
	b := mustRun(t, fastConfig(Hybrid2, workload.Single("bzip2")))
	if a.TotalCycles != b.TotalCycles || len(a.Jobs) != len(b.Jobs) {
		t.Fatal("same-seed runs diverged")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs between identical runs", i)
		}
	}
	cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
	cfg.Seed = 99
	c := mustRun(t, cfg)
	if c.TotalCycles == a.TotalCycles {
		t.Log("different seeds produced identical totals (possible but suspicious)")
	}
}

func TestGanttRenders(t *testing.T) {
	rep := mustRun(t, fastConfig(AllStrictAutoDown, workload.Single("bzip2")))
	g := rep.Gantt(80)
	if len(g) == 0 || g == "(no completed jobs)\n" {
		t.Fatalf("gantt empty: %q", g)
	}
}

func TestTraceEngineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("trace engine is slow")
	}
	cfg := TraceConfig(Hybrid2, workload.Single("bzip2"))
	rep := mustRun(t, cfg)
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("trace engine hit rate = %v, want 1.0", rep.DeadlineHitRate)
	}
	if len(rep.Jobs) != 10 {
		t.Errorf("trace engine accepted %d jobs", len(rep.Jobs))
	}
	// Stealing must be active and bounded under the real shadow tags.
	if rep.ElasticMissIncrease < 0 || rep.ElasticMissIncrease > cfg.ElasticSlack*3 {
		// 3X: one repartition interval is 3% of a scaled trace job, so a
		// steep first steal can overshoot before the guard rolls back.
		t.Errorf("trace elastic miss increase = %v, want within ~[0, 3X]", rep.ElasticMissIncrease)
	}
}

func TestJobStateAndHelpers(t *testing.T) {
	if StateWaiting.String() != "waiting" || StateDone.String() != "done" {
		t.Error("state names wrong")
	}
	j := &Job{Mode: qos.Strict(), State: StateRunning, Deadline: 100, Completed: 99}
	if !j.MetDeadline() {
		t.Error("completion before deadline should be met")
	}
	j.Completed = 101
	if j.MetDeadline() {
		t.Error("completion after deadline should miss")
	}
	j.Deadline = 0
	if !j.MetDeadline() {
		t.Error("jobs without deadlines trivially meet them")
	}
	if !j.ReservedRunning(0) {
		t.Error("running strict job is reserved-running")
	}
	j.AutoDowngraded = true
	j.SwitchBack = 50
	if j.ReservedRunning(10) {
		t.Error("auto-downgraded job before switch-back is not reserved")
	}
	if !j.ReservedRunning(60) {
		t.Error("auto-downgraded job after switch-back is reserved")
	}
}

func TestWallClockEnforcementTerminatesOverrunner(t *testing.T) {
	// Failure injection: the job accepted into slot 0 secretly carries
	// 3x the work its tw was computed for. With enforcement on, it is
	// terminated at its budget and every *other* job still meets its
	// deadline — the reservation system contains the damage.
	cfg := fastConfig(AllStrict, workload.Single("bzip2"))
	cfg.EnforceWallClock = true
	cfg.overrunJobSlot = 0
	cfg.overrunFactor = 3.0
	rep := mustRun(t, cfg)
	if rep.Terminated != 1 {
		t.Fatalf("terminated = %d, want exactly the injected overrunner", rep.Terminated)
	}
	for _, j := range rep.Jobs {
		if j.Terminated {
			if j.Met {
				t.Error("terminated job must not count as meeting its deadline")
			}
			continue
		}
		if !j.Met {
			t.Errorf("innocent job %d missed its deadline", j.ID)
		}
	}
	// The budget is honored: the overrunner's wall-clock is within one
	// epoch of tw.
	for _, j := range rep.Jobs {
		if j.Terminated && j.WallClock > rep.Jobs[1].WallClock*11/10+cfg.EpochCycles {
			t.Errorf("overrunner ran %d cycles, far beyond its budget", j.WallClock)
		}
	}
}

func TestNoEnforcementLetsOverrunnerFinish(t *testing.T) {
	cfg := fastConfig(AllStrict, workload.Single("bzip2"))
	cfg.overrunJobSlot = 0
	cfg.overrunFactor = 2.0
	rep := mustRun(t, cfg)
	if rep.Terminated != 0 {
		t.Fatal("no enforcement, no terminations")
	}
	// The overrunner itself misses (it has 2x the work) but completes.
	missed := 0
	for _, j := range rep.Jobs {
		if !j.Met {
			missed++
		}
	}
	if missed == 0 {
		t.Error("the overrunning job should miss its deadline")
	}
}

func TestBusPriorityProtectsReservedJobs(t *testing.T) {
	// §4.2 footnote 2: the bus serves reserved jobs' memory requests
	// first, so when it congests the Strict jobs' wall-clock grows less
	// than the Opportunistic jobs', which absorb the queueing. Use the
	// memory-intensive mcf profile at full and at quarter bandwidth.
	free := fastConfig(Hybrid1, workload.Single("mcf"))
	free.TwMargin = 1.3 // budget headroom so contention does not reject jobs
	congested := free
	congested.Mem.PeakBytesPerS = 1.6e9
	repFree, repCongested := mustRun(t, free), mustRun(t, congested)

	sFree, sCongested := repFree.WallClockByMode["Strict"], repCongested.WallClockByMode["Strict"]
	if sFree == nil || sCongested == nil || repFree.OppWallClock.Count() == 0 || repCongested.OppWallClock.Count() == 0 {
		t.Fatal("missing strict or opportunistic summaries")
	}
	strict := sCongested.Mean() / sFree.Mean()
	opp := repCongested.OppWallClock.Mean() / repFree.OppWallClock.Mean()
	if strict < 1 || opp < 1 {
		t.Fatalf("a quarter-bandwidth bus should slow every job: strict ×%.3f, opportunistic ×%.3f", strict, opp)
	}
	if strict >= opp {
		t.Errorf("congestion slowed strict jobs ×%.3f, opportunistic ×%.3f: the reserved class should pay less", strict, opp)
	}

	// The mechanism, epoch by epoch: on the loaded bus a running reserved
	// job never pays more than the unprioritized penalty, an
	// opportunistic one never less, and below the 4× cap they differ.
	r, err := New(congested)
	if err != nil {
		t.Fatal(err)
	}
	var cheaper, dearer int
	for !r.done() {
		r.step()
		flat := r.bus.MissPenaltyAt(r.bus.Utilization()) * r.latFactor
		for _, j := range r.accepted {
			if j.State != StateRunning || j.Core < 0 {
				continue
			}
			got, reserved := r.penaltyFor(j), j.ReservedRunning(r.now)
			switch {
			case reserved && got > flat, !reserved && got < flat:
				t.Fatalf("cycle %d: job %d (reserved %v) pays %v, unprioritized %v", r.now, j.ID, reserved, got, flat)
			case reserved && got < flat:
				cheaper++
			case !reserved && got > flat:
				dearer++
			}
		}
	}
	if cheaper == 0 || dearer == 0 {
		t.Errorf("%d reserved epochs below the unprioritized penalty, %d opportunistic above; want both", cheaper, dearer)
	}
}

// TestBusBreakPoint pins where the contract ends. The LAC reserves cores,
// ways and a timeslot but not memory bandwidth: an accepted Strict job
// keeps its deadline only while the timeslot margin (TwMargin, 1.05)
// covers the bus contention it meets. For each benchmark, at the paper's
// machine with no faults, every accepted deadline holds at the first
// bandwidth and at least one is missed at the second: the two rows of
// DESIGN §8.5's table that bracket the benchmark's break point.
func TestBusBreakPoint(t *testing.T) {
	for _, tc := range []struct {
		bench      string
		hold, miss float64 // bytes/s
	}{
		{"mcf", 3.2e9, 1.6e9},
		{"milc", 3.2e9, 1.6e9},
		{"bzip2", 1.2e9, 0.8e9},
		{"gobmk", 1.2e9, 0.8e9},
	} {
		for _, bw := range []float64{tc.hold, tc.miss} {
			cfg := DefaultConfig(AllStrict, workload.Single(tc.bench))
			cfg.ScaleJobs(20_000_000)
			cfg.Mem.PeakBytesPerS = bw
			rep := mustRun(t, cfg)
			if rep.DeadlineJobs == 0 {
				t.Fatalf("%s at %.1f GB/s: no job accepted", tc.bench, bw/1e9)
			}
			if held := rep.DeadlineHits == rep.DeadlineJobs; held != (bw == tc.hold) {
				t.Errorf("%s at %.1f GB/s: %d of %d accepted deadlines met; the break point moved",
					tc.bench, bw/1e9, rep.DeadlineHits, rep.DeadlineJobs)
			}
		}
	}
}

func TestEngineStrings(t *testing.T) {
	if EngineTable.String() != "table" || EngineTrace.String() != "trace" {
		t.Error("engine names wrong")
	}
	if len(Policies()) != 5 {
		t.Error("there are five Table 2 configurations")
	}
}

func TestPhasedJobsStillGuaranteed(t *testing.T) {
	// A phased bzip2 (calm first half, hot second half) under
	// All-Strict: tw budgets the worst phase, so deadlines hold and the
	// calm phase shows up as early completion (internal fragmentation).
	phases := []workload.Phase{
		{Until: 0.5, MPIScale: 0.5},
		{Until: 1.0, MPIScale: 1.0},
	}
	w := workload.Composition{Name: "phased-bzip2"}
	for i := 0; i < 10; i++ {
		w.Jobs = append(w.Jobs, workload.JobTemplate{Benchmark: "bzip2", Phases: phases})
	}
	cfg := fastConfig(AllStrict, w)
	rep := mustRun(t, cfg)
	if rep.DeadlineHitRate != 1.0 {
		t.Fatalf("phased workload hit rate = %v, want 1.0", rep.DeadlineHitRate)
	}
	// Compare against the uniform workload: phased jobs finish faster
	// than their budget (the calm phase runs ahead).
	uniform := mustRun(t, fastConfig(AllStrict, workload.Single("bzip2")))
	pw := rep.WallClockByMode["Strict"].Mean()
	uw := uniform.WallClockByMode["Strict"].Mean()
	if pw >= uw {
		t.Errorf("phased wall-clock %v should undercut uniform %v", pw, uw)
	}
}

func TestReportWriteJSON(t *testing.T) {
	rep := mustRun(t, fastConfig(Hybrid2, workload.Single("bzip2")))
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back["policy"] != "Hybrid-2" || back["workload"] != "bzip2" {
		t.Errorf("header fields wrong: %v %v", back["policy"], back["workload"])
	}
	if jobs, ok := back["jobs"].([]interface{}); !ok || len(jobs) != 10 {
		t.Errorf("jobs array wrong: %T", back["jobs"])
	}
	if back["deadline_hit_rate"].(float64) != 1.0 {
		t.Error("hit rate not serialized")
	}
}

func TestUCPPartPolicy(t *testing.T) {
	// The dynamic UCP baseline: admits everything (like EqualPart),
	// repartitions by utility each epoch. For a mixed workload with one
	// cache-hungry and one insensitive benchmark it beats EqualPart on
	// throughput, but like EqualPart it guarantees nothing.
	mix := workload.Composition{Name: "ucp-mix"}
	for i := 0; i < 10; i++ {
		b := "bzip2"
		if i%2 == 1 {
			b = "gobmk"
		}
		mix.Jobs = append(mix.Jobs, workload.JobTemplate{Benchmark: b})
	}
	eq := mustRun(t, fastConfig(EqualPart, mix))
	ucp := mustRun(t, fastConfig(UCPPart, mix))
	if ucp.Rejected != 0 {
		t.Error("UCP-Part has no admission control")
	}
	if ucp.TotalCycles >= eq.TotalCycles {
		t.Errorf("UCP-Part (%d) should beat EqualPart (%d) on the mixed workload",
			ucp.TotalCycles, eq.TotalCycles)
	}
	if ucp.DeadlineHitRate >= 0.9 {
		t.Errorf("UCP-Part hit rate %v — optimizers do not provide guarantees", ucp.DeadlineHitRate)
	}
	// Trace engine is rejected for this policy.
	bad := TraceConfig(UCPPart, mix)
	if err := bad.Validate(); err == nil {
		t.Error("UCP-Part with trace engine accepted")
	}
}

func TestScriptedArrivals(t *testing.T) {
	// Explicit submissions, no Poisson: one rejected tight job stays
	// rejected (no retry), the rest run to completion.
	tw := int64(1) // placeholder; deadlines come from factors
	_ = tw
	script := []ScriptedJob{
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 1000, DeadlineFactor: 1.05}, // no slot: rejected
		{Template: workload.JobTemplate{Benchmark: "gobmk", Hint: workload.HintOpportunistic}, Arrival: 2000},
	}
	cfg := DefaultConfig(Hybrid2, workload.Composition{Name: "scripted"})
	cfg.JobInstr = 5_000_000
	cfg.StealIntervalInstr = 250_000
	cfg.Script = script
	rep := mustRun(t, cfg)
	if len(rep.Jobs) != 3 || rep.Rejected != 1 {
		t.Fatalf("accepted %d rejected %d, want 3/1", len(rep.Jobs), rep.Rejected)
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("hit rate = %v", rep.DeadlineHitRate)
	}
	// Validation catches out-of-order and bogus entries.
	bad := cfg
	bad.Script = []ScriptedJob{
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 100},
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 50},
	}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order script accepted")
	}
	bad.Script = []ScriptedJob{{Template: workload.JobTemplate{Benchmark: "nope"}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown benchmark in script accepted")
	}
}

func TestScriptedInstrOverride(t *testing.T) {
	// A scripted job with 2x the instructions gets a proportionally
	// scaled tw, so both jobs meet their deadlines and the long job's
	// wall-clock is ~2x the short one's.
	script := []ScriptedJob{
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2, Instr: 10_000_000},
	}
	cfg := DefaultConfig(AllStrict, workload.Composition{Name: "instr"})
	cfg.JobInstr = 5_000_000
	cfg.StealIntervalInstr = 250_000
	cfg.Script = script
	rep := mustRun(t, cfg)
	if len(rep.Jobs) != 2 || rep.DeadlineHitRate != 1.0 {
		t.Fatalf("accepted=%d hit=%v", len(rep.Jobs), rep.DeadlineHitRate)
	}
	ratio := float64(rep.Jobs[1].WallClock) / float64(rep.Jobs[0].WallClock)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("wall-clock ratio = %v, want ~2", ratio)
	}
}

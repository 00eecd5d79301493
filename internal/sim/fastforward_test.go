package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"cmpqos/internal/fault"
	"cmpqos/internal/mem"
	"cmpqos/internal/steal"
	"cmpqos/internal/workload"
)

// scriptedCfg is a Hybrid-2 node fed by a script: two Strict jobs at
// cycle 0, an opportunistic one shortly after, and a late mcf job with
// its own length.
func scriptedCfg() Config {
	cfg := DefaultConfig(Hybrid2, workload.Composition{Name: "scripted"})
	cfg.JobInstr = 5_000_000
	cfg.StealIntervalInstr = 250_000
	cfg.Script = []ScriptedJob{
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
		{Template: workload.JobTemplate{Benchmark: "bzip2"}, Arrival: 0, DeadlineFactor: 2},
		{Template: workload.JobTemplate{Benchmark: "gobmk", Hint: workload.HintOpportunistic}, Arrival: 2000},
		{Template: workload.JobTemplate{Benchmark: "mcf"}, Arrival: 40_000_000, DeadlineFactor: 3, Instr: 10_000_000},
	}
	return cfg
}

// TestEventSkipByteIdentity holds the event-horizon fast-forward to the
// reference engine on the refCases scenarios that cover every class of
// event a horizon must stop at: arrivals, completions, steal-crossing
// verdicts, rollbacks, automatic downgrade and switch-back, wall-clock
// termination, phase transitions, scripted arrivals, and the
// no-admission policies. The skip must engage in each.
func TestEventSkipByteIdentity(t *testing.T) {
	matchCases(t, pickCases(t, "arrivals-completions-steals-rollbacks", "autodown-switchback", "wallclock-termination",
		"equalpart", "ucp", "phased-profiles", "scripted-arrivals"))
}

// TestEventSkipEngages pins the performance claim's precondition at the
// paper's own scale (200M-instruction jobs): between QoS events the run
// is overwhelmingly steady, so the closed form must absorb the bulk of
// the epochs — including the period-2 bus limit cycle the epoch/bus
// feedback settles into — not fire occasionally.
func TestEventSkipEngages(t *testing.T) {
	rep := mustRun(t, DefaultConfig(Hybrid2, workload.Single("bzip2")))
	total := rep.EpochsStepped + rep.EpochsSkipped
	if total == 0 {
		t.Fatal("simulation made no epochs")
	}
	if frac := float64(rep.EpochsSkipped) / float64(total); frac < 0.75 {
		t.Errorf("fast-forward absorbed %d/%d epochs (%.0f%%); want most of the run",
			rep.EpochsSkipped, total, 100*frac)
	}
}

// TestEventSkipFaultStorm holds generated fault plans (every fault
// kind, several densities) to the reference: horizons must shrink to
// the next fault instant while still skipping the steady stretches
// between faults.
func TestEventSkipFaultStorm(t *testing.T) {
	skippedSomewhere := false
	for _, pol := range []Policy{AllStrict, AllStrictAutoDown, Hybrid2} {
		for seed := int64(1); seed <= 3; seed++ {
			plan := fault.Generate(seed, 4, fault.DefaultHorizon, 4, 16)
			got := matchReference(t, fmt.Sprintf("%s seed %d", pol, seed), faultCfg(pol, plan))
			skippedSomewhere = skippedSomewhere || got.rep.EpochsSkipped > 0
		}
	}
	if !skippedSomewhere {
		t.Error("no fault-storm run skipped a single epoch; the fault horizon is over-conservative")
	}
}

// TestEventSkipByteIdentityPaperScale is the reference identity at the
// scale the document quotes: 200M-instruction jobs, where windows run
// to thousands of epochs and every float accumulator goes through
// repeatAdd's closed form instead of its short-window loop (the
// scenarios above mostly stay under the cut-over). Every policy × the
// three paper workloads × seeds 1–3, plus the benchmark tape's Hybrid-2
// fault storm and its two controller runs.
func TestEventSkipByteIdentityPaperScale(t *testing.T) {
	check := func(name string, cfg Config, minSkipped float64) {
		t.Helper()
		rep := matchReference(t, name, cfg).rep
		total := rep.EpochsStepped + rep.EpochsSkipped
		if frac := float64(rep.EpochsSkipped) / float64(total); frac <= minSkipped {
			t.Errorf("%s: fast-forward absorbed %d/%d epochs (%.0f%%), want over %.0f%%; the identity proves little",
				name, rep.EpochsSkipped, total, 100*frac, 100*minSkipped)
		}
	}
	bzip2 := workload.Single("bzip2")
	for _, w := range []workload.Composition{bzip2, workload.Mix1(), workload.Mix2()} {
		for _, p := range Policies() {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := DefaultConfig(p, w)
				cfg.Seed = seed
				check(fmt.Sprintf("%s/%s/seed=%d", p, w.Name, seed), cfg, 0.80)
			}
		}
	}
	storm := DefaultConfig(Hybrid2, bzip2)
	storm.Faults = fault.Generate(1000, 4, fault.DefaultHorizon, storm.Cores, storm.L2.Ways)
	check("fault-storm", storm, 0)
	for _, ctrl := range []string{"pid", "aimd"} {
		check(ctrl, ctrlCfg(AllStrict, ctrl, 1), 0)
	}
}

// engineGrid calls check with each configuration of a generated
// single-node grid: every policy × bzip2, mcf, Mix-1 and Mix-2 × the
// paper's 6.4 GB/s bus and a 1.6 GB/s one that saturates (DESIGN §8.5)
// × the paper's scale and the event-dense one × seeds 1–3, each with no
// faults and under a generated fault storm, and Hybrid-2 (the one
// policy that runs Elastic jobs) again at Elastic slack 0.5, where an
// Elastic reservation outlasts the tight deadline class; then both
// feedback controllers at seeds 1–5.
func engineGrid(check func(name string, cfg Config)) {
	workloads := []workload.Composition{workload.Single("bzip2"), workload.Single("mcf"), workload.Mix1(), workload.Mix2()}
	for _, p := range Policies() {
		slacks := []float64{0.05}
		if p == Hybrid2 {
			slacks = append(slacks, 0.5)
		}
		for _, slack := range slacks {
			for _, w := range workloads {
				for _, bus := range []float64{6.4, 1.6} {
					for _, dense := range []bool{false, true} {
						for seed := int64(1); seed <= 3; seed++ {
							for _, storm := range []bool{false, true} {
								cfg := DefaultConfig(p, w)
								cfg.ElasticSlack = slack
								cfg.Mem.PeakBytesPerS = bus * 1e9
								cfg.Seed = seed
								if dense {
									cfg.JobInstr = 10_000_000
									cfg.StealIntervalInstr = 100_000
								}
								if storm {
									cfg.Faults = fault.Generate(seed, 4, fault.DefaultHorizon, cfg.Cores, cfg.L2.Ways)
								}
								check(fmt.Sprintf("%s/slack=%v/%s/bus=%vGBps/dense=%v/seed=%d/storm=%v", p, slack, w.Name, bus, dense, seed, storm), cfg)
							}
						}
					}
				}
			}
		}
	}
	for _, ctrl := range []string{"pid", "aimd"} {
		for seed := int64(1); seed <= 5; seed++ {
			check(fmt.Sprintf("%s/seed=%d", ctrl, seed), ctrlCfg(AllStrict, ctrl, seed))
		}
	}
}

// ctrlCfg is the event-dense, wall-clock-enforcing bzip2 node the
// controller tests run, under policy p and controller ctrl.
func ctrlCfg(p Policy, ctrl string, seed int64) Config {
	cfg := DefaultConfig(p, workload.Single("bzip2"))
	cfg.JobInstr = 10_000_000
	cfg.StealIntervalInstr = 100_000
	cfg.EnforceWallClock = true
	cfg.RequestWays = 6
	cfg.Controller = ctrl
	cfg.CtrlIntervalCycles = 8 * cfg.EpochCycles
	cfg.Seed = seed
	return cfg
}

// TestNodeEpochCountersPinned pins which windows a single node proves,
// as TestFleetEpochCountersPinned does for fleets: the identity tests
// compare reports, which carry no epoch counters, so without this only
// the benchmark's digest would notice a window that closes early. With
// every arrival capping the window, as before admitWindow, All-Strict
// on bzip2 steps 1,001 epochs, not 58; only EqualPart, which accepts
// every arrival, keeps its counts. It pins each run's billed admission
// tests and rejections too: a learned start that skipped or
// double-billed a test fails here as well as against the reference.
func TestNodeEpochCountersPinned(t *testing.T) {
	// name → {EpochsStepped, EpochsSkipped, LACProbes, Rejected}, seed 1,
	// paper scale. The epoch counts are those of windows no reservation
	// edge caps (DESIGN §11.1); such a cap moves eight of the ten, each
	// with its stepped + skipped sum, probes and rejections unchanged.
	want := map[string][4]int64{
		"All-Strict/bzip2":          {58, 12125, 1089, 1079},
		"Hybrid-1/bzip2":            {68, 10406, 552, 542},
		"Hybrid-2/bzip2":            {617, 9896, 552, 542},
		"All-Strict+AutoDown/bzip2": {91, 10810, 1092, 1082},
		"EqualPart/bzip2":           {40, 10371, 0, 0},
		"All-Strict/Mix-1":          {64, 9971, 1130, 1120},
		"Hybrid-1/Mix-1":            {79, 8794, 370, 360},
		"Hybrid-2/Mix-1":            {157, 7410, 370, 360},
		"All-Strict+AutoDown/Mix-1": {87, 6921, 919, 909},
		"EqualPart/Mix-1":           {55, 7002, 0, 0},
	}
	for _, w := range []workload.Composition{workload.Single("bzip2"), workload.Mix1()} {
		for _, p := range Policies() {
			name := fmt.Sprintf("%s/%s", p, w.Name)
			t.Run(name, func(t *testing.T) {
				rep := mustRun(t, DefaultConfig(p, w))
				got := [4]int64{rep.EpochsStepped, rep.EpochsSkipped, rep.LACProbes, int64(rep.Rejected)}
				if w, ok := want[name]; !ok || got != w {
					t.Errorf("{stepped, skipped, probes, rejected} = %v, pinned %v", got, w)
				}
			})
		}
	}
}

// TestApplySteadyFloatAccumulators pins what applySteady hands
// repeatAdd — which accumulator takes which addend, how many rounds, and
// the period-2 alternation in stepped order — on values where each
// choice shows in the bits: at 2^53 an addition of 1 is absorbed and one
// of 1.5 rounds to 2, so (s+1)+1.5 and (s+1.5)+1 differ, and no multiple
// of an addend equals its repeated sum.
func TestApplySteadyFloatAccumulators(t *testing.T) {
	const s, k = 1 << 53, 6
	for _, period := range []int64{1, 2} {
		r, err := New(DefaultConfig(Hybrid2, workload.Single("bzip2")))
		if err != nil {
			t.Fatal(err)
		}
		j := &Job{BaselineCycles: s}
		r.ffPeriod = int8(period)
		r.byCore[0] = []*Job{j}
		r.ffDeltas = []jobDelta{{base: 1}, {base: 1.5}} // a half per parity
		*r.frag = fragSink{idleCores: s, idleWays: s, internal: s}
		r.planIdleCores, r.planIdleWays, r.planInternal = 1.5, 2.5, 3
		r.applySteady(k)
		want := repeatAddLoop(s, 1, 0, k)
		if period == 2 {
			want = repeatAddLoop(s, 1, 1.5, k/2)
		}
		if j.BaselineCycles != want {
			t.Errorf("period %d: BaselineCycles = %v, %d stepped epochs leave %v", period, j.BaselineCycles, k, want)
		}
		if got, want := *r.frag, (fragSink{
			idleCores: repeatAddLoop(s, 1.5, 0, k),
			idleWays:  repeatAddLoop(s, 2.5, 0, k),
			internal:  repeatAddLoop(s, 3, 0, k),
		}); got != want {
			t.Errorf("period %d: frag pools = %+v, %d stepped epochs leave %+v", period, got, k, want)
		}
	}
}

// TestPricingRecordFollowsItsHalf: epochDeltas keeps a pricing per
// parity and, asked for parity 0 at the u parity 1 was priced at, swaps
// the halves instead of pricing again. A swap must carry each half's
// ffPricedAt record with it, or a record names the other half's deltas:
// the flip without the records passed every other test, because no
// later held epoch read the stale record. Here parity 1 is priced at u₁
// and parity 0 at u₀, epochDeltas(u₁, 0) swaps, and then every record
// must still price its half, and epochDeltas(u₀, 0) and
// epochDeltas(u₁, 1) must return a fresh pricing's totals.
func TestPricingRecordFollowsItsHalf(t *testing.T) {
	r, err := New(DefaultConfig(Hybrid2, workload.Single("bzip2")))
	if err != nil {
		t.Fatal(err)
	}
	jobs := 0
	for i := 0; i < 10_000 && (jobs < 2 || !r.planOK); i++ {
		r.step()
		jobs = 0
		for _, onCore := range r.byCore {
			jobs += len(onCore)
		}
	}
	if jobs < 2 || !r.planOK {
		t.Fatalf("no held plan with two jobs: %d jobs, planOK %v", jobs, r.planOK)
	}
	const u0, u1 = 0.15, 0.85
	type totals struct{ miss, wb int64 }
	fresh := func(u float64) totals {
		r.ffPricedAt = unpriced
		m, w := r.epochDeltas(u, 0)
		r.ffPricedAt = unpriced
		return totals{m, w}
	}
	want := map[float64]totals{u0: fresh(u0), u1: fresh(u1)}
	if want[u0] == want[u1] {
		t.Fatalf("u %v and %v price the plan alike (%+v): the test cannot tell the halves apart", u0, u1, want[u0])
	}
	ask := func(u float64, parity int) {
		t.Helper()
		if m, w := r.epochDeltas(u, parity); (totals{m, w}) != want[u] {
			t.Fatalf("epochDeltas(%v, %d) = %d misses, %d write-backs; a fresh pricing gives %+v", u, parity, m, w, want[u])
		}
		for p, at := range r.ffPricedAt {
			var got totals
			for _, d := range r.parityDeltas(p)[:jobs] {
				got.miss += d.misses
				got.wb += writeBacks(d.misses)
			}
			if !math.IsNaN(at) && got != want[at] {
				t.Fatalf("after epochDeltas(%v, %d): parity %d's record says u = %v, its half sums to %+v, want %+v",
					u, parity, p, at, got, want[at])
			}
		}
	}
	ask(u1, 1)
	ask(u0, 0)
	if r.ffPricedAt != [2]float64{u0, u1} {
		t.Fatalf("records %v after pricing both parities, want [%v %v]", r.ffPricedAt, u0, u1)
	}
	swapped := r.ffSwapped
	ask(u1, 0)
	if r.ffSwapped == swapped || r.ffPricedAt != [2]float64{u1, u0} {
		t.Fatalf("epochDeltas(%v, 0) did not swap the halves: swapped %v, records %v", u1, r.ffSwapped, r.ffPricedAt)
	}
	ask(u0, 0)
	ask(u1, 1)
}

// TestStealHorizonAgainstStepping holds the fast-forward's steal guard to
// the controller it stands in for. Each case is a window of k epochs
// alternating per-epoch deltas d0 and d1 from randomised counters,
// instrLastSteal and interval: d1 == d0 (period 1) in half the cases,
// unequal instruction counts in the rest. A walk applies the deltas one
// epoch at a time, finds every interval crossing as runStealing does and
// asks the controller for its verdict there; every crossing at or before
// the epoch stealHorizon returns must Hold. The cases cover each regime
// of the controller — nothing stolen and paused or at the way floor, ways
// stolen and free to act, the guard ratio starting and heading to either
// side of the slack — and half of them put the first possible crossing
// exactly at the end of an epoch.
func TestStealHorizonAgainstStepping(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	paper := DefaultConfig(AllStrict, workload.Composition{}).Mem
	idle, saturated := mem.NewBus(paper), mem.NewBus(paper)
	saturated.AddMisses(1 << 20)
	saturated.Roll(1_000_000)
	r := &Runner{nodeShared: &nodeShared{}, model: &tableModel{}}
	type regime struct{ stolen, paused, floor bool }
	held, cut := map[regime]int{}, map[regime]int{}
	// near draws counts whose excess ratio lies around the slack.
	near := func(shadow int64, slack float64) int64 {
		return int64(float64(shadow) * (1 + slack*(2.5*rng.Float64()-0.5)))
	}
	for n := 0; n < 4000; n++ {
		g := regime{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		r.bus = idle
		if g.paused {
			r.bus = saturated
		}
		slack := 0.01 + 0.99*rng.Float64()
		orig, floor, stolen := 3+rng.Intn(14), 1, 0
		switch {
		case g.stolen && g.floor:
			stolen = 1 + rng.Intn(orig-1)
			floor = orig - stolen
		case g.stolen:
			stolen = 1 + rng.Intn(orig-2)
		case g.floor:
			floor = orig
		}
		c := steal.New(slack, orig, floor)
		for range stolen {
			if c.OnInterval(0, 0, false) != steal.StealOne {
				t.Fatal("a fresh controller refused to steal")
			}
		}

		interval := 1000 + rng.Int63n(200_000)
		r.cfg.StealIntervalInstr = interval
		instr := func() int64 {
			if rng.Intn(8) == 0 {
				return interval + rng.Int63n(2*interval) // crosses every epoch
			}
			return 1 + rng.Int63n(interval/4)
		}
		shadow := func() int64 {
			if rng.Intn(10) == 0 {
				return 0
			}
			return rng.Int63n(500)
		}
		s0 := shadow()
		d0 := jobDelta{instr: instr(), misses: near(s0, slack), shadow: s0}
		d1, P := d0, int64(1)
		if rng.Intn(2) == 0 {
			s1 := shadow()
			d1, P = jobDelta{instr: instr(), misses: near(s1, slack), shadow: s1}, 2
			for d1.instr == d0.instr {
				d1.instr = instr()
			}
		}
		var S0 int64
		if rng.Intn(10) != 0 {
			S0 = rng.Int63n(200_000)
		}
		ls := rng.Int63n(interval)
		if iMax := max(d0.instr, d1.instr); rng.Intn(2) == 0 && iMax < interval {
			ls = interval - iMax*(1+rng.Int63n(interval/iMax))
		}
		j := &Job{Stealer: c, State: StateRunning, MainMisses: near(S0, slack), ShadowMisses: S0, instrLastSteal: ls}
		k := P * (1 + rng.Int63n(1500))

		got := r.stealHorizon(j, &d0, &d1, k)
		if got < 0 || got > k {
			t.Fatalf("case %d: stealHorizon returned %d of a %d-epoch window", n, got, k)
		}
		if got < k {
			cut[g]++
		}
		ctrl := *c
		main, shad := j.MainMisses, j.ShadowMisses
		for e := int64(1); e <= got; e++ {
			d := d0
			if e%2 == 0 {
				d = d1
			}
			main, shad, ls = main+d.misses, shad+d.shadow, ls+d.instr
			for ; ls >= interval; ls -= interval {
				if v := ctrl.OnInterval(main, shad, g.paused); v != steal.Hold {
					t.Fatalf("case %d %+v, interval %d, d0 %+v, d1 %+v, start (%d, %d, %d), slack %v: the crossing in epoch %d answers %v, but stealHorizon passed %d of %d epochs",
						n, g, interval, d0, d1, j.MainMisses, j.ShadowMisses, j.instrLastSteal, slack, e, v, got, k)
				}
				held[g]++
			}
		}
	}
	// Every regime must have been exercised the way it can be: a crossing
	// that held inside a passed window, a window the guard cut short.
	for _, stolen := range []bool{false, true} {
		for _, paused := range []bool{false, true} {
			for _, floor := range []bool{false, true} {
				g := regime{stolen, paused, floor}
				acts := stolen && !paused && !floor
				inert := !stolen && (paused || floor)
				if (held[g] == 0) != acts || (cut[g] == 0) != inert {
					t.Errorf("%+v: %d crossings held, %d windows cut short", g, held[g], cut[g])
				}
			}
		}
	}
}

// clusterSkipCfg is the shared fleet scenario for the differential
// cluster tests: big enough that nodes sleep and wake across arrivals,
// small enough to run many configurations in test time.
func clusterSkipCfg() ClusterConfig {
	node := DefaultConfig(Hybrid2, workload.Single("bzip2"))
	node.JobInstr = 5_000_000
	node.StealIntervalInstr = 100_000
	return ClusterConfig{
		Nodes:        32,
		Node:         node,
		AcceptTarget: 96,
	}
}

// TestClusterCancellation is the regression for the fleet loop's
// context handling: a canceled context must abort the run — both before
// the first epoch and mid-fleet — rather than surviving to the next
// multiple-of-256 poll as the legacy loop allowed.
func TestClusterCancellation(t *testing.T) {
	cfg := clusterSkipCfg()
	cfg.AcceptTarget = 10_000 // long enough that cancellation races the run, not the finish

	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cr.RunParallel(ctx, 2); err == nil {
		t.Error("pre-canceled context did not abort the fleet")
	}

	cr, err = NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := cr.RunParallel(ctx, 2); err == nil {
		t.Error("mid-run cancel did not abort the fleet")
	} else if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancellation took %v to land", waited)
	}
}

// TestRunContextCancellation covers the single-node engine: cancellation
// must land both in production and on the reference engine.
func TestRunContextCancellation(t *testing.T) {
	for _, reference := range []bool{false, true} {
		r, err := New(planCacheCfg(Hybrid2, "bzip2"))
		if err != nil {
			t.Fatal(err)
		}
		r.reference = reference
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.RunContext(ctx); err == nil {
			t.Errorf("reference=%v: pre-canceled context did not abort the run", reference)
		}
	}
}

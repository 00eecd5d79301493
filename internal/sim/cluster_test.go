package sim

import (
	"fmt"
	"reflect"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

func clusterCfg(nodes, target int) ClusterConfig {
	node := fastConfig(Hybrid2, workload.Single("bzip2"))
	return ClusterConfig{Nodes: nodes, Node: node, AcceptTarget: target}
}

func TestClusterValidation(t *testing.T) {
	if err := clusterCfg(2, 20).Validate(); err != nil {
		t.Fatalf("valid cluster config rejected: %v", err)
	}
	bad := clusterCfg(0, 20)
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	bad = clusterCfg(2, 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero target accepted")
	}
	ep := clusterCfg(2, 20)
	ep.Node.Policy = EqualPart
	if err := ep.Validate(); err == nil {
		t.Error("EqualPart cluster accepted")
	}
}

func TestClusterRunsAndGuarantees(t *testing.T) {
	cr, err := NewCluster(clusterCfg(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 20 {
		t.Fatalf("accepted = %d, want 20", rep.Accepted)
	}
	if rep.DeadlineHitRate != 1.0 {
		t.Errorf("cluster hit rate = %v, want 1.0 (the GAC only places satisfiable jobs)", rep.DeadlineHitRate)
	}
	if rep.Nodes != 2 {
		t.Fatalf("node count = %d", rep.Nodes)
	}
}

func TestClusterBalancesPlacement(t *testing.T) {
	// The GAC balances: both nodes should carry a meaningful share.
	cr, err := NewCluster(clusterCfg(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodeReports(cr) {
		if n.AcceptedJobs < 5 {
			t.Errorf("node %d carries only %d jobs — placement unbalanced", i, n.AcceptedJobs)
		}
	}
}

func TestClusterScalesThroughput(t *testing.T) {
	// The Figure 2 environment scaling: doubling the nodes while
	// doubling the job count should keep the makespan roughly flat
	// (within 35%), i.e. throughput scales with nodes.
	one, err := NewCluster(clusterCfg(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := one.Run()
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewCluster(clusterCfg(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.Run()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r2.TotalCycles) / float64(r1.TotalCycles)
	if ratio > 1.35 {
		t.Errorf("2-node makespan for 2x jobs is %.2fx the 1-node makespan; want near-flat", ratio)
	}
}

func TestClusterSingleNodeMatchesRunnerShape(t *testing.T) {
	// A 1-node cluster must behave like the standalone runner: 10 jobs,
	// all reserved deadlines met.
	cr, err := NewCluster(clusterCfg(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 10 || rep.DeadlineHitRate != 1.0 {
		t.Errorf("accepted=%d hit=%v", rep.Accepted, rep.DeadlineHitRate)
	}
}

// runLockStep is the fleet oracle: the paper's environment advanced the
// obvious way — place the epoch's arrivals, step every node, observe
// every node in id order, move the clock one epoch — with no rounds, no
// retirement and every node on the reference engine, so no fast path
// runs anywhere in the fleet. It returns the fleet report and every
// node's own report.
func runLockStep(t *testing.T, cfg ClusterConfig) (*ClusterReport, []*Report) {
	t.Helper()
	cr := newTestCluster(t, cfg)
	for _, n := range cr.nodes {
		n.reference = true
	}
	allIdle := func() bool {
		for _, n := range cr.nodes {
			if n.liveCount() > 0 {
				return false
			}
		}
		return true
	}
	for cr.accepted < cfg.AcceptTarget || !allIdle() {
		if cr.now > maxCycles {
			t.Fatalf("lock-step oracle exceeded the safety horizon with %d/%d accepted", cr.accepted, cfg.AcceptTarget)
		}
		epochEnd := cr.now + cfg.Node.EpochCycles
		cr.placeArrivals(epochEnd) // wake is a no-op: every node's clock is the cluster's
		for _, n := range cr.nodes {
			n.step()
		}
		for id := range cr.nodes {
			cr.observe(id)
		}
		cr.now = epochEnd
	}
	return cr.report(), nodeReports(cr)
}

func nodeReports(cr *ClusterRunner) []*Report {
	reps := make([]*Report, len(cr.nodes))
	for i, n := range cr.nodes {
		reps[i] = n.report()
	}
	return reps
}

// fleetCase is one fleet of the lock-step oracle's table.
type fleetCase struct {
	name string
	cfg  ClusterConfig
	// What the case must demonstrably exercise, so it cannot go
	// vacuous: fault transitions firing inside the run, closed-form
	// skipping in the rounds, controller retunes, arrivals placed on a
	// sleeping node whose clock lags the cluster's (so wake must catch
	// it up before the submission).
	faults, skips, retunes, sleepers bool
}

// oracleFleets is the table TestClusterMatchesLockStepOracle runs: every
// dispatcher clean and under seeded fault storms, pid/aimd with and
// without faults, AutoDown on Mix-1, a trace-engine fleet, and one
// paper-scale fleet per strategy. The event-dense fleets keep every
// node busy, so an arrival almost never finds its node asleep; the
// paper-scale ones, 16 nodes and 64 jobs of 200 M instructions, place
// arrivals on nodes that sleep through long proved windows.
func oracleFleets() []fleetCase {
	var cases []fleetCase
	storm := func(seed int64, rate float64) fault.Plan {
		return fault.Generate(seed, rate, 40_000_000, 4, 16)
	}
	for _, disp := range testDispatchers() {
		cfg := clusterSkipCfg()
		cfg.Dispatcher = disp
		cases = append(cases, fleetCase{name: disp, cfg: cfg, skips: true})
		for seed := int64(1); seed <= 6; seed++ {
			for _, rate := range []float64{100, 400, 1500} {
				cfg := cfg
				cfg.Node.Faults = storm(seed, rate)
				// One cell is compared but cannot fire: oversub rejects
				// nothing, drains the fleet in 22 Mcycles and is done before
				// seed 5's only rate-100 event (28.7 Mcycles).
				fires := !(disp == "oversub" && seed == 5 && rate == 100)
				cases = append(cases, fleetCase{
					name: fmt.Sprintf("%s/faults-seed%d-rate%v", disp, seed, rate),
					cfg:  cfg, faults: fires, skips: true,
				})
			}
		}
	}
	for _, disp := range qos.StrategyNames() {
		node := DefaultConfig(Hybrid2, workload.Single("bzip2"))
		cfg := ClusterConfig{Nodes: 16, Node: node, AcceptTarget: 64, Dispatcher: disp}
		cases = append(cases, fleetCase{name: "paper/" + disp, cfg: cfg, skips: true, sleepers: true})
	}
	for _, ctrl := range []string{"pid", "aimd"} {
		cfg := clusterSkipCfg()
		cfg.Node.Policy = AllStrict
		cfg.Node.EnforceWallClock = true
		cfg.Node.RequestWays = 6
		cfg.Node.Controller = ctrl
		cfg.Node.CtrlIntervalCycles = 4 * cfg.Node.EpochCycles
		cases = append(cases, fleetCase{name: ctrl, cfg: cfg, skips: true, retunes: true})
		cfg.Node.Faults = storm(3, 400)
		cases = append(cases, fleetCase{name: ctrl + "/faults", cfg: cfg, faults: true, skips: true, retunes: true})
	}
	{
		cfg := clusterSkipCfg()
		cfg.Node.Policy = AllStrictAutoDown
		cfg.Node.Workload = workload.Mix1()
		cases = append(cases, fleetCase{name: "autodown-mix1", cfg: cfg, skips: true})
		cfg.Node.Faults = storm(2, 400)
		cases = append(cases, fleetCase{name: "autodown-mix1/faults", cfg: cfg, faults: true, skips: true})
	}
	{
		node := TraceConfig(Hybrid2, workload.Single("bzip2"))
		node.JobInstr = 1_000_000
		node.StealIntervalInstr = 50_000
		cfg := ClusterConfig{Nodes: 3, Node: node, AcceptTarget: 9}
		cases = append(cases, fleetCase{name: "trace-engine", cfg: cfg})
		// Way faults need the table engine; cores and latency do not.
		cfg.Node.Faults = fault.Plan{Events: []fault.Event{
			{Kind: fault.CoreFail, At: 5_000_000, Duration: 8_000_000, Core: 1},
			{Kind: fault.LatencySpike, At: 12_000_000, Duration: 5_000_000, Factor: 2},
			{Kind: fault.CoreFail, At: 20_000_000, Core: 3},
		}}
		cases = append(cases, fleetCase{name: "trace-engine/faults", cfg: cfg, faults: true})
	}
	return cases
}

// maskFleet and maskNode drop what a fleet report and a node's report
// hold of idle epochs, which the rounds and the lock-step oracle count
// differently: the epoch counters, and the fragmentation ratios whose
// denominator they are.
func maskFleet(rep *ClusterReport) ClusterReport {
	cp := *rep
	cp.EpochsStepped, cp.EpochsSkipped = 0, 0
	return cp
}

func maskNode(rep *Report) Report {
	cp := *rep
	cp.EpochsStepped, cp.EpochsSkipped, cp.Frag = 0, 0, Fragmentation{}
	return cp
}

// TestClusterMatchesLockStepOracle holds ClusterRunner's one loop — the
// rounds from arrival epoch to arrival epoch, with fault plans as
// wakes, nodes that cannot fast-forward simply waking every epoch, and
// the drain's stop at the last completion — to the lock-step oracle, on
// the fleet report and on every node's report. The oracle steps idle
// tails the rounds never replay, so the epoch counters
// and the fragmentation ratios (whose denominator is the epoch count)
// are the only fields masked. TestClusterWorkerCountInvariance holds
// the same fleets at workers 4 to workers 1. The catch-up record must
// demonstrably serve wakes, woken-early odd-need period-2 windows among
// them (wakeProbe); only the paper/* fleets wake sleepers.
func TestClusterMatchesLockStepOracle(t *testing.T) {
	var hits, oddP2 int
	for _, tc := range oracleFleets() {
		t.Run(tc.name, func(t *testing.T) {
			wantFleet, wantNodes := runLockStep(t, tc.cfg)
			for i, n := range wantNodes {
				if n.EpochsSkipped != 0 || n.EpochsStepped != wantNodes[0].EpochsStepped {
					t.Errorf("oracle node %d stepped %d and skipped %d epochs, node 0 stepped %d; lock-step steps every node every epoch",
						i, n.EpochsStepped, n.EpochsSkipped, wantNodes[0].EpochsStepped)
					break
				}
			}
			cr := newTestCluster(t, tc.cfg)
			probe := &wakeProbe{inner: cr.disp, cr: cr}
			cr.disp = probe
			w1Fleet, err := cr.Run()
			if err != nil {
				t.Fatal(err)
			}
			w1Nodes := nodeReports(cr)
			hits += probe.hits
			oddP2 += probe.oddP2
			if got, want := maskFleet(w1Fleet), maskFleet(wantFleet); !reflect.DeepEqual(got, want) {
				t.Errorf("fleet report differs from lock-step\ngot:  %+v\nwant: %+v", got, want)
			}
			for i := range w1Nodes {
				if got, want := maskNode(w1Nodes[i]), maskNode(wantNodes[i]); !reflect.DeepEqual(got, want) {
					t.Errorf("node %d report differs from lock-step (later nodes not shown)\ngot:  %+v\nwant: %+v", i, got, want)
					break
				}
			}
			fired, terminated := 0, 0
			for _, n := range w1Nodes {
				fired += n.Faults.CoreFails + n.Faults.WayFaults + n.Faults.LatencySpikes
				terminated += n.Terminated
			}
			if tc.faults && fired == 0 {
				t.Error("no fault transition fired inside the run; the case does not exercise a fault fleet")
			}
			if tc.skips && w1Fleet.EpochsSkipped == 0 {
				t.Error("the rounds never fast-forwarded a node epoch; the identity proves nothing")
			}
			if tc.skips && w1Fleet.EpochsStepped >= wantFleet.EpochsStepped {
				t.Errorf("the rounds stepped %d node-epochs, lock-step %d; they save nothing",
					w1Fleet.EpochsStepped, wantFleet.EpochsStepped)
			}
			if tc.sleepers && probe.lagged == 0 {
				t.Error("no arrival was placed on a sleeping node behind the cluster clock; wake's catch-up goes untested")
			}
			if tc.retunes && w1Fleet.CtrlRetunes == 0 {
				t.Error("the controller never ticked")
			}
			t.Logf("accepted %d, rejected probes %d, faults fired %d, terminated %d, node-epochs stepped %d (lock-step %d) skipped %d, placed on lagging sleepers %d",
				w1Fleet.Accepted, w1Fleet.RejectedProbes, fired, terminated,
				w1Fleet.EpochsStepped, wantFleet.EpochsStepped, w1Fleet.EpochsSkipped, probe.lagged)
		})
	}
	t.Logf("wakes served from the catch-up record: %d, of them woken-early odd-need period-2: %d", hits, oddP2)
	if hits == 0 || oddP2 == 0 {
		t.Errorf("the catch-up record served %d wakes, %d of them an odd-need period-2 window; the identity proves nothing", hits, oddP2)
	}
}

// TestFleetEpochCountersPinned pins which windows a fleet proves: the
// oracle masks the epoch counters, so without this only the benchmark's
// digest would notice a change in how many node-epochs the rounds
// step or skip. It is the only test that holds the catch-up record to
// not changing those counts (the reference comparisons sum stepped and
// skipped epochs): the literals are the counts of catchUp re-proving
// every window, and of windows no reservation edge caps (DESIGN
// §11.1); such a cap moves five of the nine, each with its stepped +
// skipped sum and probes unchanged.
func TestFleetEpochCountersPinned(t *testing.T) {
	// name → {EpochsStepped, EpochsSkipped, RejectedProbes, LACProbes}.
	// Every dispatcher asks nodes through the uncharged Peek, so LACProbes
	// counts the admissions nodes ran (and fault refits); only the
	// injected probeall oracle bills a probe per node per arrival.
	want := map[string][4]int64{
		"bestfit":                      {1126, 1719, 7, 96},
		"locality":                     {988, 1855, 7, 96},
		"oversub":                      {1065, 1756, 0, 96},
		"worstfit":                     {1190, 1731, 1, 96},
		"probeall":                     {1126, 1719, 7, 3392},
		"bestfit/faults-seed1-rate400": {1314, 3608, 7, 116},
		"pid/faults":                   {2366, 3266, 29, 403},
		"autodown-mix1":                {369, 1666, 0, 96},
		// A node woken for an arrival catches up before it admits: a
		// submission on a lagging clock moves these.
		"paper/bestfit": {2331, 67906, 46, 64},
	}
	ran := 0
	for _, tc := range oracleFleets() {
		w, ok := want[tc.name]
		if !ok {
			continue
		}
		ran++
		t.Run(tc.name, func(t *testing.T) {
			rep, err := newTestCluster(t, tc.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			got := [4]int64{rep.EpochsStepped, rep.EpochsSkipped, int64(rep.RejectedProbes), rep.LACProbes}
			if got != w {
				t.Errorf("{stepped, skipped, rejected probes, LAC probes} = %v, pinned %v", got, w)
			}
		})
	}
	if ran != len(want) {
		t.Errorf("ran %d of the %d pinned fleets; a case was renamed", ran, len(want))
	}
}

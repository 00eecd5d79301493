package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

// recordingDispatch wraps a dispatcher and logs every placement, so
// differential tests can compare decision sequences, not just end
// reports.
type recordingDispatch struct {
	inner Dispatcher
	log   []Placement
}

func (d *recordingDispatch) Name() string { return d.inner.Name() }

func (d *recordingDispatch) Place(a Arrival) Placement {
	p := d.inner.Place(a)
	d.log = append(d.log, p)
	return p
}

// probeallDispatch is §3.1's GAC as the paper states it: it probes every
// node's LAC, charged, on every arrival and takes the feasible node with
// the least (start, load), ties to the lowest id. No configuration
// selects it, so tests inject it (newTestCluster).
type probeallDispatch struct{ cr *ClusterRunner }

func (d probeallDispatch) Name() string { return "probeall" }

func (d probeallDispatch) Place(a Arrival) Placement {
	best, bestStart, bestLoad := -1, int64(0), 0
	for i, n := range d.cr.nodes {
		e := n.tmpl[a.Slot]
		dec := n.lac.Probe(n.admitRequest(-1, n.reqWays, e.tw, deadlineFor(n.cfg.DeadlineFactor, a.DL, a.TA, e.tw), a.TA, e.mode))
		if !dec.Accepted {
			continue
		}
		if load := n.liveCount(); best == -1 || dec.Start < bestStart || (dec.Start == bestStart && load < bestLoad) {
			best, bestStart, bestLoad = i, dec.Start, load
		}
	}
	return Placement{Node: best}
}

// testDispatchers is every strategy plus the injected probeall loop.
func testDispatchers() []string { return append(qos.StrategyNames(), "probeall") }

// newTestCluster is NewCluster that also accepts Dispatcher "probeall".
func newTestCluster(t *testing.T, cfg ClusterConfig) *ClusterRunner {
	t.Helper()
	probeAll := cfg.Dispatcher == "probeall"
	if probeAll {
		cfg.Dispatcher = ""
	}
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if probeAll {
		cr.disp = probeallDispatch{cr}
	}
	return cr
}

// runRecorded runs a cluster under disp (when non-nil, in place of the
// configured dispatcher), returning the report and the per-arrival
// placement log.
func runRecorded(t *testing.T, cfg ClusterConfig, disp func(*ClusterRunner) Dispatcher) (*ClusterReport, []Placement) {
	t.Helper()
	cr := newTestCluster(t, cfg)
	if disp != nil {
		cr.disp = disp(cr)
	}
	rec := &recordingDispatch{inner: cr.disp}
	cr.disp = rec
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.log
}

// samePlacements fails the test unless two runs placed every arrival
// alike and their reports agree apart from the dispatcher's name and
// LACProbes (the charged probe count, which an oracle may bill
// differently).
func samePlacements(t *testing.T, oracle string, repA *ClusterReport, logA []Placement, repB *ClusterReport, logB []Placement) {
	t.Helper()
	if !reflect.DeepEqual(logA, logB) {
		for i := range logA {
			if i < len(logB) && logA[i] != logB[i] {
				t.Fatalf("placement %d diverged: %s %+v, %s %+v", i, oracle, logA[i], repB.Dispatcher, logB[i])
			}
		}
		t.Fatalf("placement logs differ in length: %d vs %d", len(logA), len(logB))
	}
	a, b := *repA, *repB
	a.Dispatcher, b.Dispatcher = "", ""
	a.LACProbes, b.LACProbes = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reports diverged:\n%s %+v\n%s %+v", oracle, repA, repB.Dispatcher, repB)
	}
}

// TestBestfitMatchesProbeall is the differential check behind the
// golden pin: bestfit must reproduce the charged probe-all loop's
// placement sequence decision for decision — through its bounds where
// they are sound (fault storms, controllers and a saturated 1.6 GB/s
// bus included; it sees the first two through LAC.gen), and by a scan
// without bounds where they are not (AutoDown places via LatestFit;
// trace-engine nodes each have their own tw).
func TestBestfitMatchesProbeall(t *testing.T) {
	storm := clusterCfg(4, 40)
	storm.Node.Faults = fault.Generate(3, 400, 40_000_000, 4, 16)
	ctrl := func(name string) ClusterConfig {
		cfg := clusterCfg(4, 40)
		cfg.Node.Policy = AllStrict
		cfg.Node.EnforceWallClock = true
		cfg.Node.RequestWays = 6
		cfg.Node.Controller = name
		cfg.Node.CtrlIntervalCycles = 4 * cfg.Node.EpochCycles
		cfg.Node.Faults = fault.Generate(2, 400, 40_000_000, 4, 16)
		return cfg
	}
	bus := ClusterConfig{Nodes: 3, Node: fastConfig(Hybrid2, workload.Mix1()), AcceptTarget: 24}
	bus.Node.Mem.PeakBytesPerS = 1.6e9
	trace := ClusterConfig{Nodes: 4, Node: TraceConfig(Hybrid2, workload.Single("bzip2")), AcceptTarget: 32}
	trace.Node.Seed = 2
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"hybrid2-single", clusterCfg(4, 40)},
		{"hybrid2-mix", ClusterConfig{
			Nodes: 3, Node: fastConfig(Hybrid2, workload.Mix1()), AcceptTarget: 24,
		}},
		{"hybrid1", ClusterConfig{
			Nodes: 4, Node: fastConfig(Hybrid1, workload.Single("bzip2")), AcceptTarget: 40,
		}},
		{"allstrict", ClusterConfig{
			Nodes: 4, Node: fastConfig(AllStrict, workload.Single("mcf")), AcceptTarget: 32,
		}},
		{"fault-storm", storm},
		{"pid", ctrl("pid")},
		{"aimd", ctrl("aimd")},
		{"bus-1.6GBps", bus},
		{"autodown-fallback", ClusterConfig{
			Nodes: 3, Node: fastConfig(AllStrictAutoDown, workload.Single("bzip2")), AcceptTarget: 24,
		}},
		// Each trace-engine node profiles its tw under its own seed, so
		// node 0's cutoff prices no other node: pruning by it rejects
		// placement 113, which node 1 takes.
		{"trace-fallback", trace},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Dispatcher = "probeall"
			repA, logA := runRecorded(t, cfg, nil)
			cfg.Dispatcher = "bestfit"
			repB, logB := runRecorded(t, cfg, nil)
			samePlacements(t, "probeall", repA, logA, repB, logB)
		})
	}
}

// peekallDispatch is the dispatch index's oracle: it peeks every node —
// uncharged, as the index does — and applies the strategy's rule with
// the sim tie-break: bestfit takes the least (start, load, id), worstfit
// the least (load, id), and oversub retries a reserved request no node
// takes Opportunistically at the least (load, id) willing node.
type peekallDispatch struct {
	cr       *ClusterRunner
	strategy qos.Strategy
}

func (d peekallDispatch) Name() string { return "peekall-" + d.strategy.String() }

func (d peekallDispatch) Place(a Arrival) Placement {
	mode := d.cr.nodes[0].tmpl[a.Slot].mode
	if d.strategy == qos.WorstFit {
		return Placement{Node: d.least(a, mode, true)}
	}
	node := d.least(a, mode, false)
	if node >= 0 || d.strategy != qos.Oversub || mode.Kind == qos.KindOpportunistic {
		return Placement{Node: node}
	}
	node = d.least(a, qos.Opportunistic(), true)
	return Placement{Node: node, Opportunistic: node >= 0}
}

// nodeKey orders the oracle's candidates lexicographically: (start,
// load, id) for bestfit, (load, id, 0) for the least-loaded pick.
type nodeKey [3]int64

func keyLess(a, b nodeKey) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// least returns the feasible node with the least (start, load, id), or
// with byLoad the least (load, id); -1 if no node takes the arrival.
func (d peekallDispatch) least(a Arrival, mode qos.Mode, byLoad bool) int {
	best, bestKey := -1, nodeKey{}
	for i, n := range d.cr.nodes {
		start, ok := n.peekTemplateMode(a.Slot, a.DL, a.TA, mode)
		if !ok {
			continue
		}
		k := nodeKey{start, int64(n.liveCount()), int64(i)}
		if byLoad {
			k = nodeKey{int64(n.liveCount()), int64(i), 0}
		}
		if best == -1 || keyLess(k, bestKey) {
			best, bestKey = i, k
		}
	}
	return best
}

// indexOracleFleets are the fleets whose LACs move earliest starts
// earlier behind the dispatcher's back — fault storms, feedback
// controllers, both — where the index stays sound only by resetting a
// node's bounds when its LAC.gen moves, two fleets of several 64-node
// blocks, where it stays exact only if a block it passes over holds no
// node that could win, and a trace-engine fleet, whose nodes' tw differ,
// where it stays exact only by pricing no node with node 0's cutoff.
func indexOracleFleets() []struct {
	name string
	cfg  ClusterConfig
} {
	type fleet = struct {
		name string
		cfg  ClusterConfig
	}
	var fleets []fleet
	for seed := int64(1); seed <= 6; seed++ {
		for _, rate := range []float64{100, 400, 1500} {
			cfg := clusterSkipCfg()
			cfg.Node.Faults = fault.Generate(seed, rate, 40_000_000, 4, 16)
			fleets = append(fleets, fleet{fmt.Sprintf("faults-seed%d-rate%v", seed, rate), cfg})
		}
	}
	for _, ctrl := range []string{"pid", "aimd"} {
		cfg := clusterSkipCfg()
		cfg.Node.Policy = AllStrict
		cfg.Node.EnforceWallClock = true
		cfg.Node.RequestWays = 6
		cfg.Node.Controller = ctrl
		cfg.Node.CtrlIntervalCycles = 4 * cfg.Node.EpochCycles
		fleets = append(fleets, fleet{ctrl, cfg})
		cfg.Node.Faults = fault.Generate(3, 400, 40_000_000, 4, 16)
		fleets = append(fleets, fleet{ctrl + "/faults", cfg})
	}
	cfg := clusterSkipCfg()
	cfg.Nodes = 4
	cfg.Node.Workload = workload.Mix1()
	cfg.Node.Controller = "pid"
	cfg.Node.Faults = fault.Generate(4, 1500, 40_000_000, 4, 16)
	fleets = append(fleets, fleet{"hybrid2-mix1-pid/faults", cfg})
	// 200 nodes fill three 64-node blocks and part of a fourth, so the
	// scan passes over whole blocks on the summaries alone.
	cfg = clusterSkipCfg()
	cfg.Nodes, cfg.AcceptTarget = 200, 600
	fleets = append(fleets, fleet{"blocks", cfg})
	cfg.Node.Faults = fault.Generate(5, 400, 40_000_000, 4, 16)
	fleets = append(fleets, fleet{"blocks/faults", cfg})
	trace := TraceConfig(Hybrid2, workload.Single("bzip2"))
	trace.JobInstr = 1_000_000
	trace.StealIntervalInstr = 50_000
	trace.Seed = 6
	return append(fleets, fleet{"trace-engine", ClusterConfig{Nodes: 4, Node: trace, AcceptTarget: 32}})
}

// TestIndexMatchesPeekAll holds bestfit, worstfit and oversub to
// peekallDispatch on every fleet of indexOracleFleets: placement logs
// equal, reports equal apart from the dispatcher's name and LACProbes.
func TestIndexMatchesPeekAll(t *testing.T) {
	placed, terminated := 0, 0
	for _, s := range []qos.Strategy{qos.BestFit, qos.WorstFit, qos.Oversub} {
		for _, f := range indexOracleFleets() {
			t.Run(s.String()+"/"+f.name, func(t *testing.T) {
				cfg := f.cfg
				cfg.Dispatcher = s.String()
				repA, logA := runRecorded(t, cfg, func(cr *ClusterRunner) Dispatcher { return peekallDispatch{cr, s} })
				repB, logB := runRecorded(t, cfg, nil)
				samePlacements(t, "peekall", repA, logA, repB, logB)
				for _, p := range logB {
					if p.Node >= 0 {
						placed++
					}
				}
				terminated += repB.Terminated
			})
		}
	}
	t.Logf("%d placements, %d terminated jobs", placed, terminated)
}

// rowCheck wraps a dispatcher and, before every placement, holds the
// dispatch index to what its pruning rests on: no bound in a row is
// below the row's floor, no bound of a reserved length exceeds the
// node's true earliest start for that length (peeked with the deadline
// lifted), and a node the opportunistic row skips refuses the arrival.
type rowCheck struct {
	t      *testing.T
	cr     *ClusterRunner
	inner  Dispatcher
	shapes map[int64]Arrival // an arrival of each reserved length seen
	placed int
}

func (d *rowCheck) Name() string { return d.inner.Name() }

func (d *rowCheck) Place(a Arrival) Placement {
	x := d.cr.idx
	for _, r := range append([]boundRow{x.opp}, x.rows...) {
		for i, b := range r.bound {
			if b < r.floor {
				d.t.Fatalf("placement %d: node %d's bound %d in the length-%d row is below its floor %d", d.placed, i, b, r.dur, r.floor)
			}
			n := d.cr.nodes[i]
			if r.dur == 0 {
				if _, ok := n.peekTemplateMode(a.Slot, a.DL, a.TA, qos.Opportunistic()); ok && b > a.TA {
					d.t.Fatalf("placement %d: node %d takes opportunistic work at %d, its bound says not before %d", d.placed, i, a.TA, b)
				}
				continue
			}
			shape := d.shapes[r.dur]
			mode, _, _ := d.cr.arrivalShape(shape)
			if s, ok := n.peekEarliestMode(shape.Slot, a.TA, mode); ok && b > s {
				d.t.Fatalf("placement %d: node %d's bound %d in the length-%d row is past its earliest start %d", d.placed, i, b, r.dur, s)
			}
		}
	}
	if mode, dur, _ := d.cr.arrivalShape(a); mode.Kind != qos.KindOpportunistic {
		if _, ok := d.shapes[dur]; !ok {
			d.shapes[dur] = a
		}
	}
	d.checkBlocks("before")
	d.placed++
	p := d.inner.Place(a)
	d.checkBlocks("after")
	return p
}

// checkBlocks holds every block summary to what a skipped block rests
// on: its least bound at or below every bound in the block, in every
// row, and its least load at or below every load. Between two
// placements only noteAdmit and noteGen write the index, so the check
// before each placement covers every noteGen since the last one.
func (d *rowCheck) checkBlocks(when string) {
	x := d.cr.idx
	for i, l := range x.load {
		if b := i >> blockShift; x.leastLoad[b] > l {
			d.t.Fatalf("%s placement %d: block %d's least load %d is above node %d's load %d", when, d.placed, b, x.leastLoad[b], i, l)
		}
	}
	for _, r := range append([]boundRow{x.opp}, x.rows...) {
		for i, bound := range r.bound {
			if b := i >> blockShift; r.least[b] > bound {
				d.t.Fatalf("%s placement %d: block %d's least bound %d in the length-%d row is above node %d's bound %d", when, d.placed, b, r.least[b], r.dur, i, bound)
			}
		}
	}
}

// TestDispatchRowsStayLowerBounds runs bestfit, worstfit, oversub and
// locality — whose window walks cover part of a block — on the fleets of
// indexOracleFleets under rowCheck. It catches a broken
// floor rule before any placement changes: a floor recorded by a scan
// that stopped early (its unvisited nodes may hold lower bounds), or one
// kept across a LAC.gen move, and a bound kept across one; and a block
// summary above a bound or load in its block — a noteGen or noteAdmit
// that does not lower it, or a walk that sets it from part of a block.
func TestDispatchRowsStayLowerBounds(t *testing.T) {
	placed := 0
	for _, s := range []qos.Strategy{qos.BestFit, qos.WorstFit, qos.Oversub, qos.Locality} {
		for _, f := range indexOracleFleets() {
			t.Run(s.String()+"/"+f.name, func(t *testing.T) {
				cfg := f.cfg
				cfg.Dispatcher = s.String()
				cr := newTestCluster(t, cfg)
				check := &rowCheck{t: t, cr: cr, inner: cr.disp, shapes: map[int64]Arrival{}}
				cr.disp = check
				if _, err := cr.Run(); err != nil {
					t.Fatal(err)
				}
				check.checkBlocks("after the last")
				placed += check.placed
			})
		}
	}
	t.Logf("%d placements checked", placed)
}

// TestClusterWorkerCountInvariance pins the sharded-stepping
// determinism contract: the nodes of a round run on the worker pool and
// are observed serially afterwards, so every dispatcher must produce an
// identical report at any worker count — on clean 6-node fleets at
// workers 1, 4 and 8, and on the lock-step oracle's fleets (fault
// storms, pid/aimd, AutoDown, the trace engine) at workers 1 and 4,
// where every node's own report must match too.
func TestClusterWorkerCountInvariance(t *testing.T) {
	for _, name := range testDispatchers() {
		t.Run(name, func(t *testing.T) {
			cfg := ClusterConfig{
				Nodes:        6,
				Node:         fastConfig(Hybrid2, workload.Single("bzip2")),
				AcceptTarget: 48,
				Dispatcher:   name,
			}
			var base *ClusterReport
			for _, workers := range []int{1, 4, 8} {
				cr := newTestCluster(t, cfg)
				rep, err := cr.RunParallel(context.Background(), workers)
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = rep
				} else if !reflect.DeepEqual(base, rep) {
					t.Fatalf("workers=%d report diverged:\nbase %+v\ngot  %+v", workers, base, rep)
				}
			}
		})
	}
	for _, tc := range oracleFleets() {
		t.Run("oracle/"+tc.name, func(t *testing.T) {
			var baseFleet *ClusterReport
			var baseNodes []*Report
			for _, workers := range []int{1, 4} {
				cr := newTestCluster(t, tc.cfg)
				fleet, err := cr.RunParallel(context.Background(), workers)
				if err != nil {
					t.Fatal(err)
				}
				nodes := nodeReports(cr)
				if baseFleet == nil {
					baseFleet, baseNodes = fleet, nodes
					continue
				}
				if !reflect.DeepEqual(fleet, baseFleet) {
					t.Errorf("workers=%d: fleet report differs from workers=1:\nw1: %+v\nw%d: %+v", workers, baseFleet, workers, fleet)
				}
				for i := range nodes {
					if !reflect.DeepEqual(nodes[i], baseNodes[i]) {
						t.Errorf("workers=%d: node %d report differs from workers=1 (later nodes not shown)\nw1: %+v\nw%d: %+v", workers, i, baseNodes[i], workers, nodes[i])
						break
					}
				}
			}
		})
	}
}

// cancelAtTarget wraps a dispatcher and cancels a context on the
// placement that meets the accept target, so the run is cancelled
// while the fleet drains.
type cancelAtTarget struct {
	inner  Dispatcher
	cr     *ClusterRunner
	cancel context.CancelFunc
}

func (d cancelAtTarget) Name() string { return d.inner.Name() }

func (d cancelAtTarget) Place(a Arrival) Placement {
	p := d.inner.Place(a)
	if p.Node >= 0 && d.cr.accepted == d.cr.cfg.AcceptTarget-1 {
		d.cancel()
	}
	return p
}

// TestClusterCancelMidDrain cancels a fleet once its last arrival is
// placed: the drain must return the context's error rather than run the
// fleet to its end, at one worker and at four.
func TestClusterCancelMidDrain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cr := newTestCluster(t, clusterSkipCfg())
		ctx, cancel := context.WithCancel(context.Background())
		cr.disp = cancelAtTarget{inner: cr.disp, cr: cr, cancel: cancel}
		_, err := cr.RunParallel(ctx, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: a fleet cancelled mid-drain returned %v, want %v", workers, err, context.Canceled)
		}
		if cr.accepted != cr.cfg.AcceptTarget {
			t.Fatalf("workers=%d: cancelled with %d of %d accepted, not in the drain", workers, cr.accepted, cr.cfg.AcceptTarget)
		}
		busy := 0
		for _, n := range cr.nodes {
			if n.liveCount() > 0 {
				busy++
			}
		}
		if busy == 0 {
			t.Errorf("workers=%d: every node ran idle; the drain was not cut short", workers)
		}
	}
}

func TestClusterDispatcherOutcomes(t *testing.T) {
	// Saturate a small fleet with tight arrivals so the dispatchers'
	// different tradeoffs become visible in the aggregates.
	node := fastConfig(Hybrid2, workload.Single("bzip2"))
	cfg := ClusterConfig{Nodes: 2, Node: node, AcceptTarget: 30}

	cfg.Dispatcher = "bestfit"
	crBest, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := crBest.Run()
	if err != nil {
		t.Fatal(err)
	}
	if best.DeadlineHitRate != 1.0 {
		t.Errorf("bestfit hit rate = %v, want 1.0 (the GAC only places satisfiable jobs)", best.DeadlineHitRate)
	}
	if best.Utilization <= 0 || best.Utilization > 1 {
		t.Errorf("utilization %v out of (0,1]", best.Utilization)
	}

	cfg.Dispatcher = "oversub"
	crOver, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	over, err := crOver.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Oversubscription converts rejections into Opportunistic admissions.
	if over.RejectedProbes > best.RejectedProbes {
		t.Errorf("oversub rejected %d > bestfit %d", over.RejectedProbes, best.RejectedProbes)
	}
}

func TestClusterValidationModern(t *testing.T) {
	base := clusterCfg(2, 20)

	big := base
	big.Nodes = maxClusterNodes + 1
	if err := big.Validate(); err == nil {
		t.Error("fleet beyond the memory bound accepted")
	}
	big.Nodes = 5000
	if err := big.Validate(); err != nil {
		t.Errorf("5000-node fleet rejected: %v", err)
	}

	series := base
	series.Node.RecordSeries = true
	if err := series.Validate(); err == nil {
		t.Error("RecordSeries cluster accepted (nodes stream their reports)")
	}

	bad := base
	for _, name := range []string{"nope", "probeall"} {
		bad.Dispatcher = name
		if err := bad.Validate(); err == nil {
			t.Errorf("unknown dispatcher %q accepted", name)
		}
	}

	ucp := base
	ucp.Node.Policy = UCPPart
	if err := ucp.Validate(); err == nil {
		t.Error("UCP-Part cluster accepted (it has no admission control to dispatch through)")
	}
}

func TestNodeSeedDerivation(t *testing.T) {
	cfg := clusterCfg(4, 10)
	cfg.Node.Seed = 1
	// Per-node seeds must be distinct and not form the arithmetic lattice
	// (Seed + 101·i) the first cluster layer used, whose low bits
	// correlate across nodes.
	seen := map[int64]bool{}
	lattice := 0
	for i := 0; i < 64; i++ {
		s := cfg.nodeSeed(i)
		if seen[s] {
			t.Fatalf("mixed seed collision at node %d", i)
		}
		seen[s] = true
		if i > 0 && s-cfg.nodeSeed(i-1) == 101 {
			lattice++
		}
	}
	if lattice > 1 {
		t.Errorf("%d consecutive mixed seeds differ by 101 — not mixed", lattice)
	}
}

// TestClusterDatacenterScale is the tentpole acceptance run: 5,000
// nodes and 1,000,000 admitted jobs on one streaming pass. It takes
// minutes, so it is gated behind an environment variable; CI and the
// default test run skip it.
func TestClusterDatacenterScale(t *testing.T) {
	if os.Getenv("CLUSTER_SCALE_TEST") == "" {
		t.Skip("set CLUSTER_SCALE_TEST=1 to run the 5,000-node/1M-job acceptance test")
	}
	node := fastConfig(Hybrid2, workload.Single("bzip2"))
	node.JobInstr = 2_000_000
	node.StealIntervalInstr = 100_000
	cfg := ClusterConfig{
		Nodes:        5000,
		Node:         node,
		AcceptTarget: 1_000_000,
	}
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cr.RunParallel(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 1_000_000 {
		t.Fatalf("accepted %d jobs, want 1,000,000", rep.Accepted)
	}
	// Admission guarantees every reservation fits before its deadline,
	// so the guaranteed hit rate stays essentially perfect; the floor
	// leaves room for the rare elastic job whose opportunistic top-up
	// starves at full fleet saturation (observed: one miss in ~700k
	// guaranteed jobs).
	if rep.DeadlineHitRate < 0.99999 {
		t.Errorf("fleet hit rate = %v, want >= 0.99999", rep.DeadlineHitRate)
	}
	t.Logf("fleet: accepted=%d rejectedProbes=%d violations=%d hitRate=%.7f utilization=%.4f cycles=%d",
		rep.Accepted, rep.RejectedProbes, rep.Violations, rep.DeadlineHitRate, rep.Utilization, rep.TotalCycles)
}

package sim

import (
	"context"
	"os"
	"reflect"
	"testing"

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

// runRecorded runs a cluster with the named dispatcher, returning the
// report and the per-arrival placement log.
func runRecorded(t *testing.T, cfg ClusterConfig, dispatcher string) (*ClusterReport, []Placement) {
	t.Helper()
	cfg.Dispatcher = dispatcher
	cr, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingDispatch{inner: cr.disp}
	cr.disp = rec
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.log
}

// TestBestfitMatchesProbeall is the differential check behind the
// golden pin: the indexed bestfit dispatcher must reproduce the legacy
// probe-all loop's placement sequence decision for decision.
func TestBestfitMatchesProbeall(t *testing.T) {
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
		// AutoDown places via LatestFit, where the index is unsound;
		// bestfit must detect that and fall back to exhaustive probing.
		{"autodown-fallback", ClusterConfig{
			Nodes: 3, Node: fastConfig(AllStrictAutoDown, workload.Single("bzip2")), AcceptTarget: 24,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			repA, logA := runRecorded(t, tc.cfg, "probeall")
			repB, logB := runRecorded(t, tc.cfg, "bestfit")
			if !reflect.DeepEqual(logA, logB) {
				for i := range logA {
					if i < len(logB) && logA[i] != logB[i] {
						t.Fatalf("placement %d diverged: probeall %+v, bestfit %+v", i, logA[i], logB[i])
					}
				}
				t.Fatalf("placement logs differ in length: %d vs %d", len(logA), len(logB))
			}
			repA.Dispatcher, repB.Dispatcher = "", ""
			repA.LACProbes, repB.LACProbes = 0, 0 // charged vs uncharged probing
			if !reflect.DeepEqual(repA, repB) {
				t.Errorf("reports diverged:\nprobeall %+v\nbestfit  %+v", repA, repB)
			}
		})
	}
}

// TestClusterWorkerCountInvariance pins the sharded-stepping
// determinism contract: every dispatcher must produce an identical
// report at any worker count.
func TestClusterWorkerCountInvariance(t *testing.T) {
	for _, name := range DispatcherNames() {
		t.Run(name, func(t *testing.T) {
			cfg := ClusterConfig{
				Nodes:        6,
				Node:         fastConfig(Hybrid2, workload.Single("bzip2")),
				AcceptTarget: 48,
				Dispatcher:   name,
			}
			var base *ClusterReport
			for _, workers := range []int{1, 4, 8} {
				cr, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
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
	bad.Dispatcher = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("unknown dispatcher accepted")
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

package sim

import (
	"context"
	"testing"
	"unsafe"

	"cmpqos/internal/workload"
)

// TestFleetAllocBudget pins what a fleet costs in bytes: a node at
// construction, and a whole run per node and per accepted job. The
// budgets sit 5% above what the code measured when they were set
// (DESIGN §10 has the before/after); a change that makes a node or a job
// fatter fails here, not in a benchmark ledger three PRs later.
func TestFleetAllocBudget(t *testing.T) {
	const nodes, jobs = 64, 256
	// Measured 215,488 B: 1,119 per node at construction, 562 per
	// accepted job for everything after it (234,192 B = 1,136 and 630
	// while a profile boundary took the 128-byte class with int64
	// aggregates over all four dimensions, a reservation node the
	// 112-byte one and a Timeline the 80-byte one; 269,392 B = 1,447 and 690
	// while a Runner took the 640-byte class with seven scheduler
	// scratch slices and a []bool of failed cores, and a node kept a
	// second id map in its Timeline beside its LAC's; 294,016 B = 1,576
	// and 754 while a Job took the 288-byte class, a Runner the 768-byte one and
	// a job's delta 48 bytes; 342,272 B = 1,672 and 918 while a node's
	// fold kept per-mode summaries, a job's reservation ids were a slice
	// and a profile boundary stored its delta; 1,754 per
	// node while the fleet kept a bucketed wake calendar beside its wakes
	// and a Timeline carried a fit memo; before a completion released its
	// reservations and a Runner fit the 768-byte class: 429,184 B = 2,015
	// and 1,172).
	const perNodeBudget, perJobBudget = 1175, 591
	// The sim-fleet benchmark's cluster, smaller.
	cfg := ClusterConfig{Nodes: nodes, Node: DefaultConfig(Hybrid2, workload.Single("bzip2")), AcceptTarget: jobs}
	if _, err := NewCluster(cfg); err != nil { // warm the tape store
		t.Fatal(err)
	}
	build := quietestAlloc(func() {
		if _, err := NewCluster(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perNode := build / nodes; perNode > perNodeBudget {
		t.Errorf("NewCluster allocated %d B per node, budget %d", perNode, perNodeBudget)
	}
	run := quietestAlloc(func() {
		cr, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := cr.Run(); err != nil || rep.Accepted != jobs {
			t.Fatalf("run: %v, %+v", err, rep)
		}
	})
	if budget := uint64(nodes*perNodeBudget + jobs*perJobBudget); run > budget {
		t.Errorf("a %d-node, %d-job fleet run allocated %d B, budget %d (%d/node + %d/job); construction was %d",
			nodes, jobs, run, budget, perNodeBudget, perJobBudget, build)
	}
}

// TestJobAndRunnerSize pins the structs a fleet allocates by the
// thousand to their malloc size classes: a field added to any is a
// decision, not an accident. A Job measures 240 bytes, the 240-byte
// class (280 in the 288-byte class while it kept its mode hint, a
// memoized useful-ways figure and a word apiece for its state, deadline
// class, core, reserved ways and controller boost). A Runner measures
// 448 bytes, the 448-byte class with no word free. Go puts an 8-byte
// malloc header only on a pointerful object above 512 B, so a Runner
// at or under 512 pays none: it was 632 bytes, 640 with the header,
// while it kept seven scheduler scratch slices beside its plan and a
// []bool of failed cores (752 in the 768-byte class while it kept a
// one-template memo, its own arrival source inline and a second slice
// header for the delta scratch's other parity; before its fault and
// controller state moved behind pointers: 992, in the 1024-byte class,
// allocated as 1,152). A jobDelta names no job: 40 bytes, so a fleet
// node's two parities of four fit the 320-byte class (384 at 48 bytes).
func TestJobAndRunnerSize(t *testing.T) {
	if got := unsafe.Sizeof(Job{}); got > 240 {
		t.Errorf("Job is %d bytes, over the 240-byte size class", got)
	}
	if got := unsafe.Sizeof(Runner{}); got > 448 {
		t.Errorf("Runner is %d bytes, over the 448-byte size class", got)
	}
	if got := unsafe.Sizeof(jobDelta{}); got > 40 {
		t.Errorf("jobDelta is %d bytes, over 40", got)
	}
	// A fleet node's fold is its ten counters (168 B, in the 176-byte
	// class, while it also kept per-mode wall-clock summaries and the
	// Elastic sums no fleet report reads).
	if got := unsafe.Sizeof(jobFold{}); got > 80 {
		t.Errorf("jobFold is %d bytes, over the 80-byte size class", got)
	}
}

// TestFleetSharesImmutableHalf: the nodes of a table-engine fleet point
// at one nodeShared, the nodes of a trace-engine fleet — whose tw tables
// are profiled under the node's seed — do not, and either way a node
// reports its own seed. The table fleet then runs on four workers, so
// `go test -race` sees every worker read the shared struct.
func TestFleetSharesImmutableHalf(t *testing.T) {
	for _, engine := range []Engine{EngineTable, EngineTrace} {
		cfg := clusterCfg(6, 24)
		cfg.Node.Engine = engine
		cr, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range cr.nodes {
			if got, want := n.Config().Seed, cfg.nodeSeed(i); got != want {
				t.Errorf("%v: node %d reports seed %d, want %d", engine, i, got, want)
			}
			if c := n.Config(); c.AcceptTarget != cfg.AcceptTarget || !c.FoldCompleted {
				t.Errorf("%v: node %d config lost the cluster's overrides", engine, i)
			}
			if shared := n.nodeShared == cr.nodes[0].nodeShared; i > 0 && shared != (engine == EngineTable) {
				t.Errorf("%v: node %d shares node 0's immutable half: %v", engine, i, shared)
			}
		}
		if engine == EngineTrace {
			continue
		}
		if rep, err := cr.RunParallel(context.Background(), 4); err != nil || rep.Accepted != 24 {
			t.Fatalf("run: %v, %+v", err, rep)
		}
	}
}

// TestFleetNodesDrawNoTapes: a cluster node's arrivals and deadline
// classes come from the cluster's streams, so it must never create its
// own cursors — each registers a tape under the node's seed in the
// process-wide tape store, which is never emptied (500 nodes pinned
// 2.7 MB per base seed).
func TestFleetNodesDrawNoTapes(t *testing.T) {
	cr, err := NewCluster(clusterCfg(64, 256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range cr.nodes {
		if n.src != nil {
			t.Fatalf("node %d of a finished fleet holds its own arrival source", i)
		}
	}
}

package sim

import (
	"context"
	"fmt"
	"math"

	"cmpqos/internal/parallel"
	"cmpqos/internal/qos"
	"cmpqos/internal/splitmix"
	"cmpqos/internal/workload"
)

// The node cap is a memory bound, not a policy: the fleet must fit
// comfortably in one machine's memory, so the cap is the node count that
// fits a 16 GiB budget at 64 KiB a node. That figure is a deliberate
// ceiling, not a measurement: a node measures 1.1 KB at construction and
// 0.6 KB per job it accepts (TestFleetAllocBudget), and 64 KiB leaves
// room for a loaded timeline and a few dozen live jobs. Deriving the cap
// by division keeps the arithmetic overflow-free however it is tuned.
const (
	nodeFootprintBytes  = int64(64) << 10
	clusterMemoryBudget = int64(16) << 30
	maxClusterNodes     = int(clusterMemoryBudget / nodeFootprintBytes)
)

// ClusterConfig describes the paper's working environment (§3.1,
// Figure 2): a server of identical CMP nodes behind a Global Admission
// Controller. Arrivals consult the nodes' Local Admission Controllers
// through a dispatch policy; the default places each job at the node
// offering the earliest feasible start and rejects jobs no node can
// satisfy.
type ClusterConfig struct {
	// Nodes is the CMP node count (the paper sizes its arrival pressure
	// for a 128-node server; anything up to the memory bound works here).
	Nodes int
	// Node is the per-node configuration; its AcceptTarget is ignored in
	// favour of AcceptTarget below, and its arrival pressure drives the
	// whole cluster.
	Node Config
	// AcceptTarget is the total number of accepted jobs across the
	// cluster that constitutes the workload.
	AcceptTarget int
	// Dispatcher names the qos.Strategy the GAC places by (see
	// dispatch.go); empty resolves to "bestfit", which places exactly as
	// probing every node would, asking only the nodes that could win.
	Dispatcher string
}

// nodeSeed derives node i's seed from the shared base seed through the
// SplitMix64 finalizer, so the per-node streams are statistically
// independent.
func (c ClusterConfig) nodeSeed(i int) int64 {
	return int64(splitmix.Mix(uint64(c.Node.Seed) + uint64(i)))
}

// Validate checks the configuration.
func (c ClusterConfig) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("sim: node count %d out of range", c.Nodes)
	}
	if c.Nodes > maxClusterNodes {
		return fmt.Errorf("sim: %d nodes exceed the %d-node memory bound (%d GiB at ~%d KiB/node)",
			c.Nodes, maxClusterNodes, clusterMemoryBudget>>30, nodeFootprintBytes>>10)
	}
	if c.AcceptTarget <= 0 {
		return fmt.Errorf("sim: cluster accept target must be positive")
	}
	if c.Node.Policy.noAdmission() {
		return fmt.Errorf("sim: the cluster layer requires admission control (not %v)", c.Node.Policy)
	}
	if c.Node.RecordSeries {
		return fmt.Errorf("sim: cluster nodes stream their reports (RecordSeries is node-level only)")
	}
	if _, err := qos.ParseStrategy(c.Dispatcher); err != nil {
		return err
	}
	return c.Node.Validate()
}

// ClusterReport aggregates a cluster run. It carries fleet-level
// aggregates only — per-node reports are folded in one at a time and
// discarded, so report size is independent of the node count.
type ClusterReport struct {
	Nodes           int
	Dispatcher      string
	Accepted        int
	RejectedProbes  int // submissions no node would take
	Terminated      int
	TotalCycles     int64
	DeadlineHitRate float64 // over guaranteed (non-Opportunistic) jobs
	Violations      int     // guaranteed jobs that missed their deadline
	GuaranteedJobs  int
	AutoDowngraded  int
	CPUCycles       int64   // Σ retired cycles across the fleet
	Utilization     float64 // CPUCycles / (Nodes · Cores · TotalCycles)
	LACProbes       int64
	// EpochsStepped/EpochsSkipped sum the per-node engine counters: how
	// many node-epochs executed individually vs. fast-forwarded in
	// closed form (DESIGN §11) — the latter including the idle epochs a
	// retired node replays in O(1) when a later arrival wakes it. Only
	// idle epochs no arrival follows (the tail after a node's last job, a
	// node never used) are not replayed and appear in neither counter.
	EpochsStepped int64
	EpochsSkipped int64
	// CtrlRetunes sums the per-node feedback-controller ticks (zero for
	// the open-loop "static" default).
	CtrlRetunes int64
}

// ClusterRunner simulates the GAC-fronted multi-node environment. The
// run is a sequence of rounds, one per cluster epoch that holds an
// arrival (DESIGN §11.4): the round places that epoch's arrivals, then
// runs every node due before the next arrival epoch, each alone from
// its own wake to that epoch. Placement and the dispatch index run
// strictly serially; only the node runs fan out across workers (each
// node owns all of its mutable state), and the nodes that ran are
// observed serially in ascending id after the round — so the run is
// bit-identical at any worker count. A round touches only the nodes
// that are due before its end, which is what lets a 5,000-node fleet
// run at the cost of its QoS events.
type ClusterRunner struct {
	cfg      ClusterConfig
	nodes    []*Runner
	arrivals *workload.ArrivalStream
	dlmix    *workload.DeadlineStream
	nextArr  int64
	now      int64
	accepted int
	rejected int

	disp Dispatcher
	idx  *dispatchIndex

	// lastGen holds each node's LAC.gen as last observed: a move resets
	// the node's bounds in the dispatch index.
	lastGen []uint64

	// wakes is the one record of a node between rounds (DESIGN §11.4):
	// the absolute cycle of its next wake — the end of the window it
	// proved, or the next epoch when it proved none — or retiredWake once
	// it has no live job and no pending fault point, so that nothing can
	// happen on it until an arrival lands. A node that cannot
	// fast-forward — the trace engine — answers nextHorizon() == now and
	// so wakes every epoch while it has work. A sleeping or retired
	// node's clock lags the cluster's; it catches up (bit-identically,
	// via the same closed form it proved, or fastForwardIdle) before
	// anything mutates it. ran holds the nodes of the current round in
	// ascending id.
	ran   []int32
	wakes []int64
}

// retiredWake is the wake of a retired node: none, until an arrival lands.
const retiredWake = int64(-1)

// NewCluster builds the cluster runner.
func NewCluster(cfg ClusterConfig) (*ClusterRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cr := &ClusterRunner{
		cfg:     cfg,
		dlmix:   workload.NewDeadlineStream(cfg.Node.Seed),
		lastGen: make([]uint64, cfg.Nodes),
		ran:     make([]int32, 0, cfg.Nodes),
		wakes:   make([]int64, cfg.Nodes),
	}
	cr.nodes = make([]*Runner, 0, cfg.Nodes)
	nodeCfg := cfg.Node
	// Per-node accept targets are moot; the cluster decides.
	nodeCfg.AcceptTarget = cfg.AcceptTarget
	// Nodes stream finished jobs into their report aggregates so fleet
	// memory tracks live jobs, not total admitted jobs.
	nodeCfg.FoldCompleted = true
	var sh *nodeShared
	for i := 0; i < cfg.Nodes; i++ {
		seed := cfg.nodeSeed(i)
		if trace := nodeCfg.Engine == EngineTrace; i == 0 || trace {
			// Identical nodes share their immutable half; the trace engine
			// profiles its tw table under the node's seed. Validate has
			// checked cfg.Node; what nodeCfg changes (a positive accept
			// target, folding without series, a seed) keeps it valid.
			if trace {
				nodeCfg.Seed = seed
			}
			sh = newShared(nodeCfg)
		}
		n := newNode(sh, seed)
		n.external = true
		cr.nodes = append(cr.nodes, n)
		// Fault transitions fire at their configured cycles even on a
		// node that never receives a job: it wakes at cycle 0, and its
		// proved windows (capped at the next fault point) carry it from
		// there. Every other node waits, retired, for its first arrival.
		if n.faults == nil {
			cr.wakes[i] = retiredWake
		}
	}
	// The shared arrival process scales with the node count, as the
	// paper's 4×128-per-tw pressure scales with its server size. The
	// stream draws gap by gap — the fleet's million-job tape is never
	// materialized.
	ref := cr.nodes[0].refTW
	cr.arrivals = workload.NewArrivalStream(cfg.Node.Seed+1,
		cfg.Node.ProbesPerTw*float64(cfg.Nodes), ref)
	cr.nextArr = cr.arrivals.Next()
	cr.idx = newDispatchIndex(cr)
	strategy, _ := qos.ParseStrategy(cfg.Dispatcher) // checked by Validate
	cr.disp = strategyDispatch{cr: cr, strategy: strategy}
	return cr, nil
}

// Run executes the cluster to completion on one worker.
func (cr *ClusterRunner) Run() (*ClusterReport, error) {
	return cr.RunParallel(context.Background(), 1)
}

// RunParallel executes the cluster to completion, running the nodes of
// each round on up to `workers` goroutines. A round places the arrivals
// of one arrival epoch, then runs every node whose wake falls before
// the next arrival epoch, each through the sequence its wakes give it —
// catchUp to the wake, step, prove the next window, wake again at its
// end — until its wake reaches that epoch or it retires. Between
// two arrival epochs nothing couples the nodes: the dispatch index is
// read only when an arrival is placed, and what a node's epochs change
// in it (a LAC.gen move, its live load) is a function of the node's
// state at the round's end, so one observation after the round leaves
// the index as observing every epoch did. Once the accept target is
// met the fleet drains (drain). A node's slept epochs replay through
// the same closed form it proved before sleeping, so the run is
// bit-identical to stepping every node every epoch (runLockStep, the
// oracle in cluster_test.go) at any worker count.
func (cr *ClusterRunner) RunParallel(ctx context.Context, workers int) (*ClusterReport, error) {
	pool := parallel.New(workers)
	E := cr.cfg.Node.EpochCycles
	for cr.accepted < cr.cfg.AcceptTarget {
		next := cr.nextArr - cr.nextArr%E
		if next > maxCycles {
			return nil, fmt.Errorf("sim: cluster exceeded safety horizon with %d/%d accepted",
				cr.accepted, cr.cfg.AcceptTarget)
		}
		if err := cr.runRound(ctx, pool, next); err != nil {
			return nil, err
		}
		cr.now = next
		cr.placeArrivals(next + E)
	}
	if err := cr.drain(ctx, pool); err != nil {
		return nil, err
	}
	return cr.report(), nil
}

// runRound runs every node whose wake falls before the cycle until, each
// alone up to it, then observes them.
func (cr *ClusterRunner) runRound(ctx context.Context, pool *parallel.Pool, until int64) error {
	cr.popRound(until - 1)
	if err := cr.runPopped(ctx, pool, until, false); err != nil {
		return err
	}
	cr.settleRound()
	return nil
}

// drain runs the fleet to its end once every arrival is placed: the
// epoch t_last in which the last accepted job finishes. The per-epoch
// loop this replaces stopped there, so an idle node with fault points
// pending processed only the points at or before t_last, and a node due
// at or before t_last stepped there even when idle. The drain reproduces
// that in two passes: every node runs until a wake finds it idle, which
// fixes t_last — the latest epoch a node stepped while busy — and then
// every node still due runs up to t_last.
func (cr *ClusterRunner) drain(ctx context.Context, pool *parallel.Pool) error {
	cr.popRound(math.MaxInt64)
	if err := cr.runPopped(ctx, pool, math.MaxInt64, true); err != nil {
		return err
	}
	// A node stops right after the step that idled it, so the epoch of
	// that step is its clock less one epoch; a node idle from the start
	// lags the last placement, which a busy node's last step never
	// precedes.
	last := retiredWake
	for _, id := range cr.ran {
		last = max(last, cr.nodes[id].now-cr.cfg.Node.EpochCycles)
	}
	if err := cr.runPopped(ctx, pool, last+1, false); err != nil {
		return err
	}
	cr.settleRound()
	return nil
}

// popRound lists in ran every node whose wake is at or before the cycle
// `to`, in ascending id.
func (cr *ClusterRunner) popRound(to int64) {
	cr.ran = cr.ran[:0]
	for id, w := range cr.wakes {
		if w != retiredWake && w <= to {
			cr.ran = append(cr.ran, int32(id))
		}
	}
}

// runPopped runs every node of ran that has not retired from its wake
// up to until (runNode), on the worker pool, and leaves its next wake
// in wakes.
func (cr *ClusterRunner) runPopped(ctx context.Context, pool *parallel.Pool, until int64, toIdle bool) error {
	_, err := parallel.Map(ctx, pool, len(cr.ran), func(i int) (struct{}, error) {
		id := cr.ran[i]
		if cr.wakes[id] == retiredWake {
			return struct{}{}, nil
		}
		w, err := cr.runNode(ctx, cr.nodes[id], cr.wakes[id], until, toIdle)
		cr.wakes[id] = w
		return struct{}{}, err
	})
	return err
}

// runNode runs node n alone from its wake `at`: catchUp to it, step,
// prove the next window, and wake again where the window ends (the next
// epoch when it proved none), while the wake is before `until`. It
// returns the node's next wake, or retiredWake once the node has no
// live job and no fault point pending. With toIdle set it also stops at
// a wake that finds the node idle, without stepping it. ctx is polled
// on entry and every 64 epochs.
func (cr *ClusterRunner) runNode(ctx context.Context, n *Runner, at, until int64, toIdle bool) (int64, error) {
	for steps := 0; at < until && !(toIdle && n.liveCount() == 0); steps++ {
		if steps&63 == 0 {
			if err := ctx.Err(); err != nil {
				return at, err
			}
		}
		if at > maxCycles {
			return at, fmt.Errorf("sim: cluster node exceeded safety horizon at cycle %d", at)
		}
		n.catchUp(at)
		n.step()
		at = n.nextHorizon()
		if n.liveCount() == 0 && !n.faultsPending() {
			return retiredWake, nil
		}
	}
	return at, nil
}

// settleRound observes the nodes of the round in ascending id.
func (cr *ClusterRunner) settleRound() {
	for _, id := range cr.ran {
		cr.observe(int(id))
	}
}

// observe takes in what node id's last run changed: a LAC.gen move —
// every completion bumps it, as do fault capacity changes and
// controller retunes — resets the node's start bounds in the dispatch
// index and records its live load.
func (cr *ClusterRunner) observe(id int) {
	if gen := cr.nodes[id].lac.Gen(); gen != cr.lastGen[id] {
		cr.lastGen[id] = gen
		cr.idx.noteGen(id)
	}
}

// placeArrivals runs the GAC loop for every arrival inside the epoch:
// the dispatcher picks a node (or rejects), the cluster admits there
// and feeds the admission back into the dispatch index. No stamp is
// before the cluster clock: the round's epoch holds the first stamp
// not yet placed, and the stream's stamps never decrease.
//
// The node admits what the dispatcher's peek accepted, because nothing
// between the two touches its LAC: wake replays only epochs the node
// proved steady before it slept — no completion, termination, fault
// point or controller tick falls in them, the only events that write a
// LAC outside admission — or fast-forwards a retired node, which runs
// no epoch at all. A refusal is the "a node changed between Plan and
// Commit" of qos.GAC.Commit, and panics the same way.
func (cr *ClusterRunner) placeArrivals(epochEnd int64) {
	jobs := cr.cfg.Node.Workload.Jobs
	for cr.nextArr < epochEnd && cr.accepted < cr.cfg.AcceptTarget {
		a := Arrival{
			Slot: cr.accepted % len(jobs),
			DL:   cr.dlmix.Next(),
			TA:   cr.nextArr,
			Seq:  cr.accepted,
		}
		p := cr.disp.Place(a)
		if p.Node < 0 {
			cr.rejected++
		} else {
			cr.wake(p.Node)
			n := cr.nodes[p.Node]
			var ok bool
			if p.Opportunistic {
				ok = n.submitTemplateAs(a.Slot, a.DL, a.TA, qos.Opportunistic())
			} else {
				ok = n.submitTemplate(a.Slot, a.DL, a.TA)
			}
			if !ok {
				panic(fmt.Sprintf("sim: node %d refused the arrival at %d its peek accepted: a node changed between the peek and the admission", p.Node, a.TA))
			}
			cr.accepted++
			cr.idx.noteAdmit(p.Node)
		}
		cr.nextArr = cr.arrivals.Next()
	}
}

// wake brings a node to the cluster clock ahead of a submission, which
// reads and mutates admission state at that clock: a sleeper replays
// its slept epochs, a retired node fast-forwards through the idle ones,
// and either then wakes at the current epoch, to run it in the round
// that follows the placement.
func (cr *ClusterRunner) wake(id int) {
	if cr.wakes[id] != retiredWake {
		cr.nodes[id].catchUp(cr.now)
	} else {
		cr.nodes[id].fastForwardIdle(cr.now)
	}
	cr.wakes[id] = cr.now
}

// report folds the per-node streaming reports into the fleet report,
// one node at a time.
func (cr *ClusterRunner) report() *ClusterReport {
	rep := &ClusterReport{
		Nodes:          len(cr.nodes),
		Dispatcher:     cr.disp.Name(),
		Accepted:       cr.accepted,
		RejectedProbes: cr.rejected,
	}
	hits, den := 0, 0
	var nr Report // one for the whole fold: a node's report is read and dropped
	for _, n := range cr.nodes {
		n.reportInto(&nr)
		if nr.TotalCycles > rep.TotalCycles {
			rep.TotalCycles = nr.TotalCycles
		}
		rep.Terminated += nr.Terminated
		rep.AutoDowngraded += nr.AutoDowngradedJobs
		rep.CPUCycles += nr.CPUCycles
		rep.LACProbes += nr.LACProbes
		rep.EpochsStepped += nr.EpochsStepped
		rep.EpochsSkipped += nr.EpochsSkipped
		rep.CtrlRetunes += nr.CtrlRetunes
		hits += nr.GuaranteedHits
		den += nr.GuaranteedJobs
	}
	rep.GuaranteedJobs = den
	rep.Violations = den - hits
	if den > 0 {
		rep.DeadlineHitRate = float64(hits) / float64(den)
	}
	if rep.TotalCycles > 0 {
		rep.Utilization = float64(rep.CPUCycles) /
			(float64(len(cr.nodes)) * float64(cr.cfg.Node.Cores) * float64(rep.TotalCycles))
	}
	return rep
}

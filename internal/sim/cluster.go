package sim

import (
	"context"
	"fmt"
	"slices"

	"cmpqos/internal/parallel"
	"cmpqos/internal/qos"
	"cmpqos/internal/splitmix"
	"cmpqos/internal/workload"
)

// The node cap is a memory bound, not a policy: the fleet must fit
// comfortably in one machine's memory, so the cap is the node count that
// fits a 16 GiB budget at 64 KiB a node. That figure is a deliberate
// ceiling, not a measurement: a node measures 2.4 KB at construction and
// 1.2 KB per job it accepts (TestFleetAllocBudget), and 64 KiB leaves
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
// dispatch loop and the index bookkeeping run strictly serially; only
// the per-epoch node stepping fans out across workers (each node owns
// all of its mutable state), and completions are observed serially in
// ascending node order after the step barrier — so the run is
// bit-identical at any worker count. An epoch touches only the nodes
// that are due at it (the calendar below), which is what lets a
// 5,000-node fleet run at the cost of its QoS events.
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

	// lastFin holds each node's finished-job count as last observed and
	// finished is their sum: the run is over once the accept target is
	// met and every accepted job has been seen to finish. lastGen holds
	// each node's LAC.gen as last observed: a move resets the node's
	// bounds in the dispatch index.
	lastFin  []int
	finished int
	lastGen  []uint64

	// Event-horizon calendar (DESIGN §11.4). A node is in exactly one of
	// three places: due (it executes the current epoch), cal (it proved
	// its next epochs steady and sleeps in the bucket of the absolute
	// cycle that horizon expires), or retired (neither: no live
	// jobs and no pending fault points, so nothing can happen on it until
	// an arrival lands). A node that cannot fast-forward — the trace
	// engine — answers nextHorizon() == now and simply stays due while it
	// has work. A sleeping or retired node's clock lags the
	// cluster's; it catches up (bit-identically, via the same closed form
	// it proved, or fastForwardIdle) before anything mutates it.
	cal      *calendar // sleeping nodes by horizon
	due      []int32   // nodes that must execute the current epoch
	inDue    []bool
	dueDirty bool    // due gained out-of-order entries since last sort
	horizons []int64 // per-due-slot horizon scratch, reused every epoch
}

// NewCluster builds the cluster runner.
func NewCluster(cfg ClusterConfig) (*ClusterRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cr := &ClusterRunner{
		cfg:      cfg,
		dlmix:    workload.NewDeadlineStream(cfg.Node.Seed),
		lastFin:  make([]int, cfg.Nodes),
		lastGen:  make([]uint64, cfg.Nodes),
		cal:      newCalendar(cfg.Nodes),
		inDue:    make([]bool, cfg.Nodes),
		horizons: make([]int64, cfg.Nodes),
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
			// profiles its tw table under the node's seed.
			if trace {
				nodeCfg.Seed = seed
			}
			var err error
			if sh, err = newShared(nodeCfg); err != nil {
				return nil, err
			}
		}
		n := newNode(sh, seed)
		n.external = true
		cr.nodes = append(cr.nodes, n)
		if n.faults != nil {
			// Fault transitions fire at their configured cycles even on a
			// node that never receives a job: it starts due, and its proved
			// windows (capped at the next fault point) carry it from there.
			cr.markDue(i)
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

// RunParallel executes the cluster to completion, stepping due nodes on
// up to `workers` goroutines per epoch. Every epoch it executes touches
// at least one due node or arrival; between events the cluster clock
// jumps straight to the earliest sleeping horizon or the next arrival's
// epoch. A node popped after sleeping replays its slept epochs through
// the same closed form it proved before sleeping, so the run is
// bit-identical to stepping every node every epoch (runLockStep, the
// oracle in cluster_test.go) at any worker count.
func (cr *ClusterRunner) RunParallel(ctx context.Context, workers int) (*ClusterReport, error) {
	pool := parallel.New(workers)
	E := cr.cfg.Node.EpochCycles
	// One closure for the run, not one per epoch: cr.due and cr.horizons
	// are not reassigned while a Map is in flight.
	stepDue := func(i int) (struct{}, error) {
		n := cr.nodes[cr.due[i]]
		n.catchUp(cr.now)
		n.step()
		cr.horizons[i] = n.nextHorizon()
		return struct{}{}, nil
	}
	for !cr.done() {
		if cr.now > maxCycles {
			return nil, fmt.Errorf("sim: cluster exceeded safety horizon with %d/%d accepted",
				cr.accepted, cr.cfg.AcceptTarget)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		epochEnd := cr.now + E
		cr.placeArrivals(epochEnd)
		// Pop every sleeper whose horizon expires at this epoch. None is
		// due already: wake takes a node out of the calendar first.
		n0 := len(cr.due)
		cr.due = cr.cal.popDue(cr.now, cr.due)
		for _, id := range cr.due[n0:] {
			cr.inDue[id] = true
			cr.dueDirty = true
		}
		if cr.dueDirty {
			slices.Sort(cr.due)
			cr.dueDirty = false
		}
		due, horizons := cr.due, cr.horizons
		if _, err := parallel.Map(ctx, pool, len(due), stepDue); err != nil {
			return nil, err
		}
		// Serial observation in ascending id order — the same subsequence
		// a scan of every node would produce, since non-due nodes cannot
		// complete jobs or move their LAC.gen while sleeping — then re-arm
		// each node: one due again at the very next epoch carries over in the
		// (still sorted) due list, bypassing the calendar — event-dense
		// fleets would otherwise file and pop every node every epoch for
		// nothing — while a node with a further horizon goes to sleep in
		// the calendar. The serial ascending order is what keeps
		// the dispatch index, and so every later placement, independent of
		// the worker count.
		kept := cr.due[:0]
		for i, id := range due {
			cr.observe(int(id))
			n := cr.nodes[id]
			switch {
			case n.idle() && !n.faultsPending():
				// Retire: with no live job and no fault transition left,
				// the node's LAC, load and capacity are constant until an
				// arrival wakes it. An idle node with fault points pending
				// falls through and sleeps up to the next one instead.
				cr.inDue[id] = false
			case horizons[i] <= epochEnd:
				kept = append(kept, id)
			default:
				cr.inDue[id] = false
				cr.cal.insert(int(id), horizons[i])
			}
		}
		cr.due = kept
		cr.now = epochEnd
		if len(cr.due) > 0 {
			continue // carried-over nodes are due at this very epoch
		}
		// Jump to the next instant anything can happen: the earliest
		// sleeping horizon, or the epoch holding the next arrival while
		// arrivals still count toward the target.
		next := int64(-1)
		if h, ok := cr.cal.top(); ok {
			next = h
		}
		if cr.accepted < cr.cfg.AcceptTarget {
			if arrEpoch := cr.nextArr - cr.nextArr%E; next < 0 || arrEpoch < next {
				next = arrEpoch
			}
		}
		if next > cr.now {
			cr.now = next
		}
	}
	return cr.report(), nil
}

// observe takes in what node id's last epoch changed: finished jobs
// count toward the run's end, and a LAC.gen move — every completion
// bumps it, as do fault capacity changes and controller retunes — resets
// the node's start bounds in the dispatch index.
func (cr *ClusterRunner) observe(id int) {
	n := cr.nodes[id]
	if fin := n.finishedCount(); fin > cr.lastFin[id] {
		cr.finished += fin - cr.lastFin[id]
		cr.lastFin[id] = fin
	}
	if gen := n.lac.Gen(); gen != cr.lastGen[id] {
		cr.lastGen[id] = gen
		cr.idx.noteGen(id)
	}
}

// markDue queues a node for execution at the cluster's current epoch.
func (cr *ClusterRunner) markDue(id int) {
	if cr.inDue[id] {
		return
	}
	cr.inDue[id] = true
	cr.due = append(cr.due, int32(id))
	cr.dueDirty = true
}

func (cr *ClusterRunner) done() bool {
	return cr.accepted >= cr.cfg.AcceptTarget && cr.finished == cr.accepted
}

// placeArrivals runs the GAC loop for every arrival inside the epoch:
// the dispatcher picks a node (or rejects), the cluster admits there
// and feeds the admission back into the dispatch index.
func (cr *ClusterRunner) placeArrivals(epochEnd int64) {
	jobs := cr.cfg.Node.Workload.Jobs
	for cr.nextArr < epochEnd && cr.accepted < cr.cfg.AcceptTarget {
		ta := cr.nextArr
		if ta < cr.now {
			ta = cr.now
		}
		a := Arrival{
			Tmpl: jobs[cr.accepted%len(jobs)],
			DL:   cr.dlmix.Next(),
			TA:   ta,
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
				ok = n.submitTemplateAs(a.Tmpl, a.DL, a.TA, qos.Opportunistic())
			} else {
				ok = n.submitTemplate(a.Tmpl, a.DL, a.TA)
			}
			if ok {
				cr.accepted++
				cr.idx.noteAdmit(p.Node)
			} else {
				// Probe raced completion bookkeeping; count as rejection.
				cr.rejected++
			}
		}
		cr.nextArr = cr.arrivals.Next()
	}
}

// wake brings a node to the cluster clock ahead of a submission, which
// reads and mutates admission state at that clock: a calendar sleeper
// replays its slept epochs, a retired node fast-forwards through the
// idle ones, and either then executes the current epoch with everyone
// else.
func (cr *ClusterRunner) wake(id int) {
	switch {
	case cr.cal.contains(id):
		cr.cal.remove(id)
		cr.nodes[id].catchUp(cr.now)
	case !cr.inDue[id]:
		cr.nodes[id].fastForwardIdle(cr.now)
	}
	cr.markDue(id)
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

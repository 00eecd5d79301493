// Cluster dispatch stage: how the Global Admission Controller picks a
// node for each arriving job. ClusterConfig.Dispatcher names a
// qos.Strategy — the names, and the placement rules, of qos.GAC — and
// defaults to bestfit. Every strategy places through an incrementally
// maintained node index that probes O(log N) candidate nodes per arrival
// instead of N, and bestfit's placements are exactly those of probing
// every node.
//
// The index rests on two facts about FCFS earliest-fit placement:
// admitting a reservation can only push a node's earliest feasible
// start later (so a previously measured start stays a valid *lower
// bound* under admissions), and only the changes that bump the node's
// LAC.gen — completions, fault capacity changes and evictions,
// controller headroom — pull it earlier (so the cluster runner resets a
// node's bounds whenever it observes that counter move, the rule
// qos.GAC's bounds table invalidates by). A probe that fails teaches the
// node's true unconstrained earliest start (one extra uncharged peek
// with the deadline lifted), so a saturated fleet rejects later arrivals
// in O(1) instead of re-probing every node as soon as the deadline
// cutoff advances; opportunistic arrivals get the same treatment through
// a bound pool fed by LAC.EarliestOpportunistic. Bounds are kept per
// distinct reservation duration — a handful, one per (template, mode)
// pair — each as two heaps: nodes whose bound has been reached by the
// arrival clock (ordered by live load, the tie-break) and nodes whose
// bound is still in the future (ordered by bound). A placement pops
// candidates in optimistic-key order, verifies them with an uncharged
// LAC peek, and stops as soon as the best verified key is provably
// minimal.
package sim

import (
	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

// Arrival is one job arrival presented to a cluster dispatcher.
type Arrival struct {
	Tmpl workload.JobTemplate
	DL   workload.DeadlineClass
	TA   int64 // arrival cycle, already clamped to the cluster clock
	Seq  int   // cluster-wide admission slot (drives locality homes)
}

// Placement is a dispatcher's verdict: the node to admit at (-1 to
// reject), and whether the job should be admitted Opportunistically
// regardless of its hint (the oversub dispatcher's retry).
type Placement struct {
	Node          int
	Opportunistic bool
}

// Dispatcher places arrivals onto cluster nodes. Place must not mutate
// node state other than through the dispatch index; the cluster runner
// performs the actual admission and feeds the admit/gen hooks back.
type Dispatcher interface {
	Name() string
	Place(a Arrival) Placement
}

// strategyDispatch places arrivals by one qos.Strategy.
type strategyDispatch struct {
	cr       *ClusterRunner
	strategy qos.Strategy
}

func (d strategyDispatch) Name() string { return d.strategy.String() }

func (d strategyDispatch) Place(a Arrival) Placement {
	cr := d.cr
	switch d.strategy {
	case qos.WorstFit:
		// The feasible node with the fewest live jobs (lowest index on
		// ties) — the load-spreading counterpoint to bestfit's packing.
		mode, dur, cutoff := cr.arrivalShape(a)
		return Placement{Node: cr.idx.placeWorst(a, mode, dur, cutoff, cr.indexable())}
	case qos.Oversub:
		// bestfit, then a reserved request no node can fit before its
		// deadline is re-dispatched Opportunistically (§5 allows several
		// Opportunistic jobs per core): the fleet trades the guarantee for
		// utilization instead of bouncing the job.
		node := cr.bestfit(a)
		if node >= 0 || cr.nodes[0].modeFor(a.Tmpl.Hint).Kind == qos.KindOpportunistic {
			return Placement{Node: node}
		}
		node = cr.idx.placeOpp(a, qos.Opportunistic())
		return Placement{Node: node, Opportunistic: node >= 0}
	case qos.Locality:
		// The best (start, load) node within a small window around a home
		// hashed from the admission slot — the data-locality heuristic of
		// real cluster schedulers, with job groups standing in for data
		// placement. When nothing near home is feasible it falls back to
		// bestfit, so its rejection set is bestfit's.
		home := int(mix64(uint64(a.Seq)) % uint64(len(cr.nodes)))
		if node := cr.probeRange(a, home, min(dispatchLocalityWindow, len(cr.nodes))); node >= 0 {
			return Placement{Node: node}
		}
	}
	return Placement{Node: cr.bestfit(a)}
}

// dispatchLocalityWindow is how many consecutive nodes the locality
// dispatcher scans around an arrival's home before falling back to
// bestfit.
const dispatchLocalityWindow = 16

// arrivalShape resolves the per-arrival quantities every dispatcher
// needs: the execution mode, the reservation duration the LAC will
// place (0 for Opportunistic), and the latest feasible start (cutoff).
// All nodes share one Config, so node 0 answers for the fleet.
func (cr *ClusterRunner) arrivalShape(a Arrival) (mode qos.Mode, dur, cutoff int64) {
	n := cr.nodes[0]
	mode = n.modeFor(a.Tmpl.Hint)
	if mode.Kind == qos.KindOpportunistic {
		return mode, 0, 0
	}
	tw := n.twFor(a.Tmpl).tw
	dur = mode.ReservationLength(tw)
	cutoff = deadlineFor(n.cfg.DeadlineFactor, a.DL, a.TA, tw) - dur
	return mode, dur, cutoff
}

// indexable reports whether the start bounds are sound for this
// cluster's reserved placements: automatic downgrade and the "latest"
// admission policy place via LatestFit, which is not monotone under
// admissions, so both fall back to probing every node.
func (cr *ClusterRunner) indexable() bool {
	return cr.cfg.Node.Policy != AllStrictAutoDown && cr.cfg.Node.admissionName() == "fcfs"
}

// bestfit returns the least (start, load, id) feasible node, -1 if none.
func (cr *ClusterRunner) bestfit(a Arrival) int {
	if !cr.indexable() {
		return cr.probeRange(a, 0, len(cr.nodes))
	}
	mode, dur, cutoff := cr.arrivalShape(a)
	return cr.idx.placeBest(a, mode, dur, cutoff)
}

// probeRange probes n nodes' LACs from first (wrapping), charged as
// §3.1's GAC would, and returns the feasible node with the least
// (start, load), ties to the node probed first; -1 if none is feasible.
func (cr *ClusterRunner) probeRange(a Arrival, first, n int) int {
	best, bestStart, bestLoad := -1, int64(0), 0
	for k := 0; k < n; k++ {
		i := (first + k) % len(cr.nodes)
		if start, ok := cr.nodes[i].probeTemplate(a.Tmpl, a.DL, a.TA); ok {
			load := cr.nodes[i].liveCount()
			if best == -1 || start < bestStart || (start == bestStart && load < bestLoad) {
				best, bestStart, bestLoad = i, start, load
			}
		}
	}
	return best
}

// --- the dispatch index ------------------------------------------------

// dispatchIndex is the incrementally maintained node summary behind
// every strategy. loadH orders every node by (live load, id); durs holds
// one lazy lower-bound structure per distinct reservation duration. The
// cluster runner feeds it every admission and every observed LAC.gen
// move, strictly serially, so its state is deterministic regardless of
// how node stepping is sharded.
type dispatchIndex struct {
	cr     *ClusterRunner
	loadH  *nodeHeap
	durs   map[int64]*durIndex
	opp    *durIndex // opportunistic feasibility bounds (dur 0)
	popped []int32   // search scratch, reused across arrivals
}

// durIndex tracks, for one reservation duration, a lower bound per node
// on the earliest feasible start. Nodes whose bound the arrival clock
// has reached sit in avail keyed (load, id) — their optimistic start is
// "now", so only the tie-break orders them; the rest sit in future
// keyed (bound, load, id). Bound 0 means unknown (reset by a
// LAC.gen move); arrival times never decrease, so nodes migrate from
// future to avail monotonically between resets.
type durIndex struct {
	dur    int64
	bound  []int64
	avail  *nodeHeap
	future *nodeHeap
}

func newDispatchIndex(cr *ClusterRunner) *dispatchIndex {
	n := len(cr.nodes)
	x := &dispatchIndex{
		cr:    cr,
		loadH: newNodeHeap(n),
		durs:  map[int64]*durIndex{},
	}
	for i := 0; i < n; i++ {
		x.loadH.fix(i, nodeKey{0, int64(i), 0})
	}
	x.opp = x.newDurIndex(0)
	return x
}

func (x *dispatchIndex) loadOf(id int) int64 {
	return int64(x.cr.nodes[id].liveCount())
}

func (x *dispatchIndex) newDurIndex(dur int64) *durIndex {
	n := len(x.cr.nodes)
	di := &durIndex{
		dur:    dur,
		bound:  make([]int64, n),
		avail:  newNodeHeap(n),
		future: newNodeHeap(n),
	}
	for i := 0; i < n; i++ {
		di.avail.fix(i, nodeKey{x.loadOf(i), int64(i), 0})
	}
	return di
}

func (x *dispatchIndex) durFor(dur int64) *durIndex {
	di, ok := x.durs[dur]
	if !ok {
		di = x.newDurIndex(dur)
		x.durs[dur] = di
	}
	return di
}

// migrate moves nodes whose bound the arrival clock has reached from
// future to avail. Arrival times are non-decreasing, so each node
// migrates at most once per bound it learns.
func (di *durIndex) migrate(ta int64, x *dispatchIndex) {
	for {
		id, key, ok := di.future.top()
		if !ok || key[0] > ta {
			return
		}
		di.future.remove(id)
		di.avail.fix(id, nodeKey{x.loadOf(id), int64(id), 0})
	}
}

// settle re-files a node under its current bound and load.
func (di *durIndex) settle(id int, ta int64, x *dispatchIndex) {
	load := x.loadOf(id)
	if b := di.bound[id]; b > ta {
		di.avail.remove(id)
		di.future.fix(id, nodeKey{b, load, int64(id)})
	} else {
		di.future.remove(id)
		di.avail.fix(id, nodeKey{load, int64(id), 0})
	}
}

// rekey re-files node id under a new load without touching its bound.
func (di *durIndex) rekey(id int, load int64) {
	if di.avail.contains(id) {
		di.avail.fix(id, nodeKey{load, int64(id), 0})
	} else {
		di.future.fix(id, nodeKey{di.bound[id], load, int64(id)})
	}
}

// reset clears node id's bound and returns it to the avail pool.
func (di *durIndex) reset(id int, load int64) {
	di.bound[id] = 0
	di.future.remove(id)
	di.avail.fix(id, nodeKey{load, int64(id), 0})
}

// noteAdmit re-keys node id after an admission (its live load grew;
// bounds stay valid — reservations only push starts later, and one
// more live opportunistic job only raises the pin cap's demand).
func (x *dispatchIndex) noteAdmit(id int) {
	load := x.loadOf(id)
	x.loadH.fix(id, nodeKey{load, int64(id), 0})
	for _, di := range x.durs {
		di.rekey(id, load)
	}
	x.opp.rekey(id, load)
}

// noteGen resets node id after its LAC.gen moved: a completion, a fault
// or a controller may have freed capacity, shrunk its live load or
// lowered the pin cap's demand, so every bound it had learned is stale.
// The node returns to every avail pool with an unknown (zero) bound.
func (x *dispatchIndex) noteGen(id int) {
	load := x.loadOf(id)
	x.loadH.fix(id, nodeKey{load, int64(id), 0})
	for _, di := range x.durs {
		di.reset(id, load)
	}
	x.opp.reset(id, load)
}

// placeBest returns the least (start, load, id) feasible node — what
// probing every node would pick — probing only nodes whose optimistic
// key could still beat the best verified candidate.
func (x *dispatchIndex) placeBest(a Arrival, mode qos.Mode, dur, cutoff int64) int {
	cr := x.cr
	if mode.Kind == qos.KindOpportunistic {
		return x.placeOpp(a, mode)
	}
	if dur <= 0 || a.TA > cutoff {
		if dur > 0 {
			return -1 // no start in [ta, cutoff] exists anywhere
		}
		// Degenerate duration (tw resolved to zero): the LAC would hold
		// the reservation forever; stay exact via exhaustive probing.
		return cr.probeRange(a, 0, len(cr.nodes))
	}
	di := x.durFor(dur)
	di.migrate(a.TA, x)
	best := -1
	var bestKey nodeKey
	popped := x.popped[:0]
	for {
		cand, opt, ok := -1, nodeKey{}, false
		if id, key, has := di.avail.top(); has {
			cand, opt, ok = id, nodeKey{a.TA, key[0], key[1]}, true
		}
		if id, key, has := di.future.top(); has && (!ok || keyLess(key, opt)) {
			cand, opt, ok = id, key, true
		}
		if !ok || opt[0] > cutoff {
			break // heap order ⇒ every remaining optimistic start is later
		}
		if best != -1 && !keyLess(opt, bestKey) {
			break // best's verified key is minimal
		}
		if di.avail.contains(cand) {
			di.avail.remove(cand)
		} else {
			di.future.remove(cand)
		}
		popped = append(popped, int32(cand))
		if s, feasible := cr.nodes[cand].peekTemplateMode(a.Tmpl, a.DL, a.TA, mode); feasible {
			di.bound[cand] = s
			k := nodeKey{s, x.loadOf(cand), int64(cand)}
			if best == -1 || keyLess(k, bestKey) {
				best, bestKey = cand, k
			}
		} else {
			di.bound[cand] = x.earliestBound(a, mode, cutoff, cand)
		}
	}
	for _, id := range popped {
		di.settle(int(id), a.TA, x)
	}
	x.popped = popped[:0]
	return best
}

// neverBound files a node no start will ever fit (a dimension never
// frees up) far past any horizon until a completion resets it.
const neverBound = int64(1) << 53

// earliestBound is what a failed constrained probe teaches about node
// id: its true unconstrained earliest start (one extra uncharged peek),
// clamped below by cutoff+1 — the constrained probe already proved
// nothing starts by the cutoff. Learning the true start instead of just
// cutoff+1 keeps saturated-fleet rejections O(1): the node stays filed
// in the future heap past every deadline that cannot reach it, instead
// of being re-probed as soon as the next arrival's cutoff advances.
func (x *dispatchIndex) earliestBound(a Arrival, mode qos.Mode, cutoff int64, id int) int64 {
	s, ok := x.cr.nodes[id].peekEarliestMode(a.Tmpl, a.TA, mode)
	if !ok {
		return neverBound
	}
	if s <= cutoff {
		return cutoff + 1
	}
	return s
}

// placeOpp places an Opportunistic arrival: every feasible node starts
// it at ta, so the least (load, id) feasible node wins. Feasibility is
// node-state dependent (a core free of reservations now, room under the
// pin cap), so candidates are verified in load order. A failed probe
// teaches the node's earliest opportunistically feasible instant
// (LAC.EarliestOpportunistic) and files it in the future heap until the
// clock reaches it — without that, a fully core-booked fleet re-scans
// all N nodes for every opportunistic arrival.
func (x *dispatchIndex) placeOpp(a Arrival, mode qos.Mode) int {
	cr := x.cr
	di := x.opp
	di.migrate(a.TA, x)
	best := -1
	popped := x.popped[:0]
	for {
		id, _, ok := di.avail.pop()
		if !ok {
			break
		}
		popped = append(popped, int32(id))
		if _, feasible := cr.nodes[id].peekTemplateMode(a.Tmpl, a.DL, a.TA, mode); feasible {
			best = id
			break
		}
		di.bound[id] = x.oppBound(id, a.TA)
	}
	for _, id := range popped {
		di.settle(int(id), a.TA, x)
	}
	x.popped = popped[:0]
	return best
}

// oppBound is what a failed opportunistic probe teaches about node id:
// the earliest instant its reservation schedule could admit one more
// opportunistic job, clamped past the probe's own arrival.
func (x *dispatchIndex) oppBound(id int, ta int64) int64 {
	s, ok := x.cr.nodes[id].lac.EarliestOpportunistic(ta)
	if !ok {
		return neverBound
	}
	if s <= ta {
		return ta + 1
	}
	return s
}

// placeWorst scans nodes in (load, id) order and admits at the first
// feasible one, so typical placements verify one node. With sound start
// bounds (indexed true) candidates whose bound exceeds the cutoff are
// skipped without probing, and a fleet-wide infeasible arrival rejects
// in O(1).
func (x *dispatchIndex) placeWorst(a Arrival, mode qos.Mode, dur, cutoff int64, indexed bool) int {
	cr := x.cr
	if mode.Kind == qos.KindOpportunistic {
		return x.placeOpp(a, mode)
	}
	if a.TA > cutoff {
		return -1
	}
	var di *durIndex
	if indexed && dur > 0 {
		di = x.durFor(dur)
		di.migrate(a.TA, x)
		if di.avail.len() == 0 {
			if _, key, ok := di.future.top(); !ok || key[0] > cutoff {
				return -1 // every node's bound already exceeds the cutoff
			}
		}
	}
	best := -1
	popped := x.popped[:0]
	for {
		id, _, ok := x.loadH.pop()
		if !ok {
			break
		}
		popped = append(popped, int32(id))
		if di != nil && di.bound[id] > cutoff {
			continue // provably infeasible, skip the probe
		}
		s, feasible := cr.nodes[id].peekTemplateMode(a.Tmpl, a.DL, a.TA, mode)
		if feasible {
			if di != nil {
				di.bound[id] = s
				di.settle(id, a.TA, x)
			}
			best = id
			break
		}
		if di != nil {
			di.bound[id] = x.earliestBound(a, mode, cutoff, id)
			di.settle(id, a.TA, x)
		}
	}
	for _, id := range popped {
		x.loadH.fix(int(id), nodeKey{x.loadOf(int(id)), int64(id), 0})
	}
	x.popped = popped[:0]
	return best
}

// mix64 is the stateless SplitMix64 finalizer, used for locality homes
// and per-node seed derivation.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

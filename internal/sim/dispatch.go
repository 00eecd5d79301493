// Cluster dispatch stage: how the Global Admission Controller picks a
// node for each arriving job. ClusterConfig.Dispatcher names a
// qos.Strategy — the names, and the placement rules, of qos.GAC — and
// defaults to bestfit. Every strategy places through a node index in
// qos.GAC's shape — rows of per-node lower bounds, scanned in node order
// — that asks only the nodes that could still win, and bestfit's
// placements are exactly those of probing every node.
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
// with the deadline lifted), so later arrivals skip the node without
// asking it until a deadline can reach that start; opportunistic
// arrivals get the same treatment through a row fed by
// LAC.EarliestOpportunistic. Bounds are kept per distinct reservation
// length — a handful, one per (template, mode) pair — and each row
// carries a floor, the least bound of its last complete scan, so a
// saturated fleet rejects an arrival without asking any node.
package sim

import (
	"math"

	"cmpqos/internal/qos"
	"cmpqos/internal/splitmix"
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
		home := int(splitmix.Mix(uint64(a.Seq)) % uint64(len(cr.nodes)))
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
// Node 0 answers for the fleet: the mode is the shared Config's, and
// the duration and cutoff, which rest on node 0's tw, are used only
// where indexable() holds, i.e. where every node shares that tw.
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
// cluster's reserved placements. Automatic downgrade and the "latest"
// admission policy place via LatestFit, which is not monotone under
// admissions; the trace engine profiles each node's tw under the node's
// own seed, so node 0's duration and cutoff do not price the others.
// All three fall back to asking every node.
func (cr *ClusterRunner) indexable() bool {
	node := &cr.cfg.Node
	return node.Policy != AllStrictAutoDown && node.admissionName() == "fcfs" && node.Engine != EngineTrace
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

// dispatchIndex is the node summary behind every strategy: one row of
// start bounds per reservation length, one of opportunistic bounds and
// one of live loads, each indexed by node id. The cluster runner feeds
// it every admission and every observed LAC.gen move, strictly serially,
// so its state is deterministic regardless of how node stepping is
// sharded.
type dispatchIndex struct {
	cr   *ClusterRunner
	load []int      // live jobs per node
	rows []boundRow // one per reservation length, in order of first use
	opp  boundRow   // opportunistic feasibility (length 0)
}

// boundRow holds, for one reservation length, a lower bound per node on
// its earliest feasible start, 0 when unknown (reset by a LAC.gen move).
// No bound in the row is below floor: a scan that visits every node
// records their least bound there, and since bounds only rise between
// resets it stays true until noteGen zeroes it.
type boundRow struct {
	dur   int64
	bound []int64
	floor int64
}

func newDispatchIndex(cr *ClusterRunner) *dispatchIndex {
	n := len(cr.nodes)
	return &dispatchIndex{cr: cr, load: make([]int, n), opp: boundRow{bound: make([]int64, n)}}
}

// rowFor returns the row of one reservation length, adding it on first
// use. The pointer is good until the next row is added.
func (x *dispatchIndex) rowFor(dur int64) *boundRow {
	for r := range x.rows {
		if x.rows[r].dur == dur {
			return &x.rows[r]
		}
	}
	x.rows = append(x.rows, boundRow{dur: dur, bound: make([]int64, len(x.load))})
	return &x.rows[len(x.rows)-1]
}

// noteAdmit records node id's new live load after an admission. Its
// bounds stay valid: reservations only push starts later, and one more
// live opportunistic job only raises the pin cap's demand.
func (x *dispatchIndex) noteAdmit(id int) {
	x.load[id] = x.cr.nodes[id].liveCount()
}

// noteGen resets node id after its LAC.gen moved: a completion, a fault
// or a controller may have freed capacity, shrunk its live load or
// lowered the pin cap's demand, so every bound it had learned is stale,
// and so is every floor.
func (x *dispatchIndex) noteGen(id int) {
	x.noteAdmit(id)
	x.opp.bound[id], x.opp.floor = 0, 0
	for r := range x.rows {
		x.rows[r].bound[id], x.rows[r].floor = 0, 0
	}
}

// placeBest returns the least (start, load, id) feasible node — what
// probing every node would pick.
func (x *dispatchIndex) placeBest(a Arrival, mode qos.Mode, dur, cutoff int64) int {
	switch {
	case mode.Kind == qos.KindOpportunistic:
		return x.placeOpp(a, mode)
	case dur <= 0:
		// Degenerate duration (tw resolved to zero): the LAC would hold
		// the reservation forever; stay exact via exhaustive probing.
		return x.cr.probeRange(a, 0, len(x.cr.nodes))
	}
	return x.scan(a, mode, x.rowFor(dur), cutoff, false)
}

// placeWorst returns the least (load, id) feasible node. With sound
// start bounds (indexed true) nodes whose bound exceeds the cutoff are
// skipped without asking; without them every node that could still win
// is asked, and nothing is pruned by node 0's cutoff.
func (x *dispatchIndex) placeWorst(a Arrival, mode qos.Mode, dur, cutoff int64, indexed bool) int {
	switch {
	case mode.Kind == qos.KindOpportunistic:
		return x.placeOpp(a, mode)
	case !indexed || dur <= 0:
		return x.scan(a, mode, nil, math.MaxInt64, true)
	}
	return x.scan(a, mode, x.rowFor(dur), cutoff, true)
}

// placeOpp places an Opportunistic arrival: every feasible node starts
// it at ta, so the least (load, id) feasible node wins. Feasibility is
// node-state dependent (a core free of reservations now, room under the
// pin cap), so a node is skipped only while its opportunistic bound lies
// past the arrival — without that row, a fully core-booked fleet would
// ask all N nodes for every opportunistic arrival.
func (x *dispatchIndex) placeOpp(a Arrival, mode qos.Mode) int {
	return x.scan(a, mode, &x.opp, a.TA, true)
}

// scan visits the nodes in id order and returns the feasible one with
// the least (start, load, id) — with byLoad the least (load, id) — or
// -1. A node is asked, through the uncharged peek, only while its
// optimistic key (max(ta, bound), load, id) could beat the best answer
// verified so far and its bound is at most limit, the latest start the
// arrival accepts; row nil means no bounds at all. A failed peek teaches
// the node's bound (earliestBound). The scan stops at the first verified
// node with start ta and load 0, which nothing later can beat; only a
// scan that visits every node records the row's floor, and a floor past
// limit rejects without asking any node.
func (x *dispatchIndex) scan(a Arrival, mode qos.Mode, row *boundRow, limit int64, byLoad bool) int {
	if row != nil && max(a.TA, row.floor) > limit {
		return -1
	}
	best, bestStart, bestLoad := -1, int64(0), 0
	floor := neverBound
	for i, load := range x.load {
		var b int64
		if row != nil {
			b = row.bound[i]
		}
		if start := max(a.TA, b); start <= limit && (best == -1 || beats(byLoad, start, load, bestStart, bestLoad)) {
			s, ok := x.cr.nodes[i].peekTemplateMode(a.Tmpl, a.DL, a.TA, mode)
			if row != nil {
				b = s
				if !ok {
					b = x.earliestBound(a, mode, limit, i)
				}
				row.bound[i] = b
			}
			if ok && (best == -1 || beats(byLoad, s, load, bestStart, bestLoad)) {
				best, bestStart, bestLoad = i, s, load
				if load == 0 && (byLoad || s == a.TA) {
					return best
				}
			}
		}
		floor = min(floor, b)
	}
	if row != nil {
		row.floor = floor
	}
	return best
}

// beats reports whether a node later in id order with start s and load l
// takes the place of the best (bestStart, bestLoad) so far: bestfit
// orders by (start, load, id), worstfit by (load, id).
func beats(byLoad bool, s int64, l int, bestStart int64, bestLoad int) bool {
	if byLoad || s == bestStart {
		return l < bestLoad
	}
	return s < bestStart
}

// neverBound files a node no start will ever fit (a dimension never
// frees up) far past any horizon until a completion resets it.
const neverBound = int64(1) << 53

// earliestBound is what a failed peek teaches about node id, clamped
// below by limit+1 — the peek already proved nothing starts by then. For
// a reserved mode it is the node's true unconstrained earliest start
// (one extra uncharged peek with the deadline lifted); learning that
// instead of just limit+1 keeps saturated-fleet rejections cheap, since
// the next arrival's slightly later cutoff would invalidate limit+1 at
// once. For Opportunistic it is the earliest instant the node's
// reservation schedule could admit one more opportunistic job
// (LAC.EarliestOpportunistic).
func (x *dispatchIndex) earliestBound(a Arrival, mode qos.Mode, limit int64, id int) int64 {
	n := x.cr.nodes[id]
	var s int64
	var ok bool
	if mode.Kind == qos.KindOpportunistic {
		s, ok = n.lac.EarliestOpportunistic(a.TA)
	} else {
		s, ok = n.peekEarliestMode(a.Tmpl, a.TA, mode)
	}
	if !ok {
		return neverBound
	}
	return max(s, limit+1)
}

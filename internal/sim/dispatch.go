// Cluster dispatch stage: how the Global Admission Controller picks a
// node for each arriving job. ClusterConfig.Dispatcher names a
// qos.Strategy — the names, and the placement rules, of qos.GAC — and
// defaults to bestfit. Every strategy places through one scan of a node
// index in qos.GAC's shape — rows of per-node lower bounds, swept in
// node order — that asks only the nodes that could still win, and
// bestfit's placements are exactly those of probing every node. Where
// no bound is sound (AutoDown, the trace engine) and over locality's
// window, the same scan runs without a row. Every question is an
// uncharged LAC.Peek, so a node's probe counter counts only the
// admission tests it ran.
//
// The index rests on two facts about FCFS earliest-fit placement:
// admitting a reservation can only push a node's earliest feasible
// start later (so a previously measured start stays a valid *lower
// bound* under admissions), and only the changes that bump the node's
// LAC.gen — completions, fault capacity changes and evictions,
// controller headroom — pull it earlier (so the cluster runner resets a
// node's bounds whenever it observes that counter move, the rule
// qos.GAC's bounds table invalidates by). A peek that fails teaches the
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
	"cmpqos/internal/workload"
)

// Arrival is one job arrival presented to a cluster dispatcher.
type Arrival struct {
	Slot int // the template's slot in the node workload (nodeShared.tmpl)
	DL   workload.DeadlineClass
	TA   int64 // arrival cycle, at or after the cluster clock
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
		return Placement{Node: cr.place(a, true)}
	case qos.Oversub:
		// bestfit, then a reserved request no node can fit before its
		// deadline is re-dispatched Opportunistically (§5 allows several
		// Opportunistic jobs per core): the fleet trades the guarantee for
		// utilization instead of bouncing the job.
		node := cr.place(a, false)
		if node >= 0 || cr.nodes[0].tmpl[a.Slot].mode.Kind == qos.KindOpportunistic {
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
		first, size := qos.LocalityWindow(a.Seq, len(cr.nodes))
		mode := cr.nodes[0].tmpl[a.Slot].mode
		if node := cr.idx.scan(a, mode, nil, math.MaxInt64, false, first, size); node >= 0 {
			return Placement{Node: node}
		}
	}
	return Placement{Node: cr.place(a, false)}
}

// arrivalShape resolves the per-arrival quantities every dispatcher
// needs: the execution mode, the reservation duration the LAC will
// place (0 for Opportunistic), and the latest feasible start (cutoff).
// Node 0 answers for the fleet: the mode is the shared Config's, and
// the duration and cutoff, which rest on node 0's tw, are used only
// where indexable() holds, i.e. where every node shares that tw.
func (cr *ClusterRunner) arrivalShape(a Arrival) (mode qos.Mode, dur, cutoff int64) {
	n := cr.nodes[0]
	e := &n.tmpl[a.Slot]
	mode = e.mode
	if mode.Kind == qos.KindOpportunistic {
		return mode, 0, 0
	}
	tw := e.tw
	dur = mode.ReservationLength(tw)
	cutoff = deadlineFor(n.cfg.DeadlineFactor, a.DL, a.TA, tw) - dur
	return mode, dur, cutoff
}

// indexable reports whether the start bounds are sound for this
// cluster's reserved placements: every node's LAC places earliest-fit
// (node 0 answers for the fleet, whose nodes share one Config), and the
// engine is not the trace engine, which profiles each node's tw under
// the node's own seed, so node 0's duration and cutoff do not price the
// others. Otherwise arrivals are placed by a scan without bounds.
func (cr *ClusterRunner) indexable() bool {
	return cr.nodes[0].lac.PlacesEarliestFit() && cr.cfg.Node.Engine != EngineTrace
}

// place returns the feasible node with the least (start, load, id) —
// with byLoad the least (load, id) — or -1: what peeking every node
// would pick. Where the start bounds are sound it scans the row of the
// arrival's reservation length, skipping without asking the nodes whose
// bound exceeds the cutoff. Where they are not, it scans without
// bounds: every node that could still win is asked, and nothing is
// pruned by node 0's cutoff. A reserved length is never 0, the
// forever-reservation whose cutoff the row would misplace: every
// template the fleet submits has a budget of at least one cycle
// (buildTwTable).
func (cr *ClusterRunner) place(a Arrival, byLoad bool) int {
	x := cr.idx
	mode, dur, cutoff := cr.arrivalShape(a)
	switch {
	case mode.Kind == qos.KindOpportunistic:
		return x.placeOpp(a, mode)
	case !cr.indexable():
		return x.scan(a, mode, nil, math.MaxInt64, byLoad, 0, len(x.load))
	}
	return x.scan(a, mode, x.rowFor(dur), cutoff, byLoad, 0, len(x.load))
}

// --- the dispatch index ------------------------------------------------

// dispatchIndex is the node summary behind every strategy: one row of
// start bounds per reservation length, one of opportunistic bounds and
// one of live loads, each indexed by node id, and for each row the
// least value of every block of 64 nodes. The cluster runner feeds it
// every admission and every observed LAC.gen move, strictly serially,
// so its state is deterministic regardless of how node runs are
// sharded.
type dispatchIndex struct {
	cr        *ClusterRunner
	load      []int      // live jobs per node
	leastLoad []int      // per block: at most every load in it
	rows      []boundRow // one per reservation length, in order of first use
	opp       boundRow   // opportunistic feasibility (length 0)
}

// blockShift sets the block of the rows' summaries: 64 nodes.
const blockShift = 6

// boundRow holds, for one reservation length, a lower bound per node on
// its earliest feasible start, 0 when unknown (reset by a LAC.gen move).
// No bound in the row is below floor: a scan that visits every node
// records their least bound there, and since bounds only rise between
// resets it stays true until noteGen zeroes it. least holds, per block
// of 64 nodes, a value at or below every bound in the block: noteGen
// lowers it with the bound it zeroes, and a walk of the whole block
// sets it to the block's least bound.
type boundRow struct {
	dur   int64
	bound []int64
	least []int64
	floor int64
}

func newDispatchIndex(cr *ClusterRunner) *dispatchIndex {
	n := len(cr.nodes)
	return &dispatchIndex{cr: cr, load: make([]int, n), leastLoad: make([]int, blocks(n)), opp: newBoundRow(0, n)}
}

func newBoundRow(dur int64, n int) boundRow {
	return boundRow{dur: dur, bound: make([]int64, n), least: make([]int64, blocks(n))}
}

// blocks returns how many blocks n nodes fill.
func blocks(n int) int { return (n + 1<<blockShift - 1) >> blockShift }

// rowFor returns the row of one reservation length, adding it on first
// use. The pointer is good until the next row is added.
func (x *dispatchIndex) rowFor(dur int64) *boundRow {
	for r := range x.rows {
		if x.rows[r].dur == dur {
			return &x.rows[r]
		}
	}
	x.rows = append(x.rows, newBoundRow(dur, len(x.load)))
	return &x.rows[len(x.rows)-1]
}

// noteAdmit records node id's new live load after an admission. Its
// bounds stay valid: reservations only push starts later, and one more
// live opportunistic job only raises the pin cap's demand.
func (x *dispatchIndex) noteAdmit(id int) {
	l := x.cr.nodes[id].liveCount()
	x.load[id] = l
	b := id >> blockShift
	x.leastLoad[b] = min(x.leastLoad[b], l)
}

// noteGen resets node id after its LAC.gen moved: a completion, a fault
// or a controller may have freed capacity, shrunk its live load or
// lowered the pin cap's demand, so every bound it had learned is stale,
// and so is every floor and the least bound of its block.
func (x *dispatchIndex) noteGen(id int) {
	x.noteAdmit(id)
	b := id >> blockShift
	x.opp.bound[id], x.opp.floor, x.opp.least[b] = 0, 0, 0
	for r := range x.rows {
		x.rows[r].bound[id], x.rows[r].floor, x.rows[r].least[b] = 0, 0, 0
	}
}

// placeOpp places an Opportunistic arrival: every feasible node starts
// it at ta, so the least (load, id) feasible node wins. Feasibility is
// node-state dependent (a core free of reservations now, room under the
// pin cap), so a node is skipped only while its opportunistic bound lies
// past the arrival — without that row, a fully core-booked fleet would
// ask all N nodes for every opportunistic arrival.
func (x *dispatchIndex) placeOpp(a Arrival, mode qos.Mode) int {
	return x.scan(a, mode, &x.opp, a.TA, true, 0, len(x.load))
}

// scan sweeps n nodes from first, wrapping, and returns the feasible one
// with the least (start, load) — with byLoad the least load — ties to
// the node swept first, or -1. A node is asked, through the uncharged
// peek, only while its optimistic key (max(ta, bound), load) could beat
// the best answer verified so far and its bound is at most limit, the
// latest start the arrival accepts; row nil means no bounds at all. A
// failed peek teaches the node's bound (earliestBound). A whole block
// of 64 nodes whose summary key (max(ta, least bound), least load)
// fails the same test is passed over without a look at its nodes: no
// node in it would be asked, since a key no better than the summary's
// beats nothing the summary cannot beat (beats is monotone). The sweep
// stops at the first verified node with start ta and load 0, which
// nothing later can beat; only a sweep that visits every node records
// the row's floor — a passed-over block adds its least bound — and a
// floor past limit rejects without asking any node.
func (x *dispatchIndex) scan(a Arrival, mode qos.Mode, row *boundRow, limit int64, byLoad bool, first, n int) int {
	if row != nil && max(a.TA, row.floor) > limit {
		return -1
	}
	best, bestStart, bestLoad := -1, int64(0), 0
	floor := neverBound
	N := len(x.load)
	// At most two runs of node ids: from first to the fleet's end, then
	// the part that wraps around to 0, each cut at block edges. Indexing
	// each block's slice of the rows keeps the walk as tight as one
	// range loop.
	for lo, end := first, first+n; lo < end; lo, end = 0, end-N {
		for hi := min(end, N); lo < hi; {
			blk := lo >> blockShift
			bEnd := min((blk+1)<<blockShift, N)
			whole := lo == blk<<blockShift && bEnd <= hi
			if !whole {
				bEnd = hi
			}
			var least int64
			if row != nil {
				least = row.least[blk]
			}
			if start := max(a.TA, least); whole && (start > limit || best != -1 && !beats(byLoad, start, x.leastLoad[blk], bestStart, bestLoad)) {
				floor = min(floor, least)
				lo = bEnd
				continue
			}
			loads := x.load[lo:bEnd]
			var bounds []int64
			if row != nil {
				bounds = row.bound[lo:bEnd]
			}
			blockBound, blockLoad := neverBound, math.MaxInt
			for i, load := range loads {
				var b int64
				if row != nil {
					b = bounds[i]
				}
				if start := max(a.TA, b); start <= limit && (best == -1 || beats(byLoad, start, load, bestStart, bestLoad)) {
					s, ok := x.cr.nodes[lo+i].peekTemplateMode(a.Slot, a.DL, a.TA, mode)
					if row != nil {
						b = s
						if !ok {
							b = x.earliestBound(a, mode, limit, lo+i)
						}
						bounds[i] = b
					}
					if ok && (best == -1 || beats(byLoad, s, load, bestStart, bestLoad)) {
						best, bestStart, bestLoad = lo+i, s, load
						if load == 0 && (byLoad || s == a.TA) {
							return best
						}
					}
				}
				blockBound, blockLoad = min(blockBound, b), min(blockLoad, load)
			}
			if whole {
				if row != nil {
					row.least[blk] = blockBound
				}
				x.leastLoad[blk] = blockLoad
			}
			floor = min(floor, blockBound)
			lo = bEnd
		}
	}
	if row != nil && n == N {
		row.floor = floor
	}
	return best
}

// beats reports whether a node swept later with start s and load l
// takes the place of the best (bestStart, bestLoad) so far: bestfit
// orders by (start, load), worstfit by load, and a tie keeps the node
// swept first — the lowest id on a sweep from node 0.
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
		s, ok = n.peekEarliestMode(a.Slot, a.TA, mode)
	}
	if !ok {
		return neverBound
	}
	return max(s, limit+1)
}

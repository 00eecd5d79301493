// Cluster dispatch stage: how the Global Admission Controller picks a
// node for each arriving job. Dispatchers are registered by name like
// the scheduler/allocator/admission stages (registry.go), selected via
// ClusterConfig.Dispatcher, and default to "bestfit" — an incrementally
// maintained node index that reproduces the historical probe-all loop's
// placements exactly while probing O(log N) candidate nodes per arrival
// instead of N.
//
// The index rests on two facts about FCFS earliest-fit placement:
// admitting a reservation can only push a node's earliest feasible
// start later (so a previously measured start stays a valid *lower
// bound* under admissions), and only completions/truncations pull it
// earlier (so bounds are reset when the cluster observes a node finish
// jobs). A probe that fails teaches the node's true unconstrained
// earliest start (one extra uncharged peek with the deadline lifted),
// so a saturated fleet rejects later arrivals in O(1) instead of
// re-probing every node as soon as the deadline cutoff advances;
// opportunistic arrivals get the same treatment through a bound pool
// fed by LAC.EarliestOpportunistic. Bounds are kept per distinct
// reservation duration — a handful, one per (template, mode) pair —
// each as two heaps: nodes whose bound has been reached by the arrival
// clock (ordered by live load, the tie-break) and nodes whose bound is
// still in the future (ordered by bound). A placement pops candidates
// in optimistic-key order, verifies them with an uncharged LAC peek,
// and stops as soon as the best verified key is provably minimal.
package sim

import (
	"fmt"

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
// performs the actual admission and feeds the admit/finish hooks back.
type Dispatcher interface {
	Name() string
	Place(a Arrival) Placement
}

var dispatchers = map[string]func(*ClusterRunner) Dispatcher{}

// RegisterDispatcher registers a named cluster dispatch policy. It
// panics on a duplicate or empty name (init-time contract, like the
// other pipeline registries).
func RegisterDispatcher(name string, build func(*ClusterRunner) Dispatcher) {
	registerPolicy(dispatchers, "dispatcher", name, build)
}

// DispatcherNames lists the registered dispatchers, sorted.
func DispatcherNames() []string { return policyNames(dispatchers) }

// ValidateDispatcherName checks an explicitly selected dispatcher name
// (empty selects the default and is always valid). CLIs call it at
// flag-parse time.
func ValidateDispatcherName(name string) error {
	if _, ok := dispatchers[name]; name != "" && !ok {
		return fmt.Errorf("unknown dispatcher %q (have %v)", name, DispatcherNames())
	}
	return nil
}

func init() {
	RegisterDispatcher("probeall", func(cr *ClusterRunner) Dispatcher { return &probeallDispatch{cr: cr} })
	RegisterDispatcher("bestfit", func(cr *ClusterRunner) Dispatcher {
		cr.ensureIndex()
		return &bestfitDispatch{cr: cr}
	})
	RegisterDispatcher("worstfit", func(cr *ClusterRunner) Dispatcher {
		cr.ensureIndex()
		return &worstfitDispatch{cr: cr}
	})
	RegisterDispatcher("oversub", func(cr *ClusterRunner) Dispatcher {
		cr.ensureIndex()
		return &oversubDispatch{cr: cr}
	})
	RegisterDispatcher("locality", func(cr *ClusterRunner) Dispatcher {
		cr.ensureIndex()
		return &localityDispatch{cr: cr}
	})
}

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

// indexable reports whether the lazy lower-bound index is sound for
// this cluster: automatic downgrade and the "latest" admission policy
// place via LatestFit (not monotone under admissions), fault plans
// evict reservations mid-epoch (which pulls starts earlier without a
// completion to observe), and a feedback controller retunes admission
// headroom (dropping it pulls starts earlier the same way), so all
// four fall back to exhaustive probing.
func (cr *ClusterRunner) indexable() bool {
	return cr.cfg.Node.Policy != AllStrictAutoDown &&
		cr.cfg.Node.admissionName() == "fcfs" &&
		cr.cfg.Node.Faults.Empty() &&
		cr.cfg.Node.controllerName() == "static"
}

// --- probeall: the historical GAC loop ---------------------------------

// probeallDispatch probes every node's LAC (charged, as §3.1's GAC
// would) and picks the lexicographically least (start, load, node):
// earliest feasible start wins; ties break toward the node with the
// fewest live jobs, then the lowest index.
type probeallDispatch struct{ cr *ClusterRunner }

func (d *probeallDispatch) Name() string { return "probeall" }

func (d *probeallDispatch) Place(a Arrival) Placement {
	cr := d.cr
	best, bestStart, bestLoad := -1, int64(0), 0
	for i, n := range cr.nodes {
		if start, ok := n.probeTemplate(a.Tmpl, a.DL, a.TA); ok {
			load := n.liveCount()
			if best == -1 || start < bestStart || (start == bestStart && load < bestLoad) {
				best, bestStart, bestLoad = i, start, load
			}
		}
	}
	return Placement{Node: best}
}

// --- bestfit: probeall's placements at O(log N) probes -----------------

type bestfitDispatch struct{ cr *ClusterRunner }

func (d *bestfitDispatch) Name() string { return "bestfit" }

func (d *bestfitDispatch) Place(a Arrival) Placement {
	cr := d.cr
	if !cr.indexable() {
		return (&probeallDispatch{cr: cr}).Place(a)
	}
	mode, dur, cutoff := cr.arrivalShape(a)
	return Placement{Node: cr.idx.placeBest(a, mode, dur, cutoff)}
}

// --- worstfit: spread load across the emptiest willing nodes -----------

// worstfitDispatch admits at the feasible node with the fewest live
// jobs (lowest index on ties) — the load-spreading counterpoint to
// bestfit's packing. It scans nodes in load order, pruning candidates
// whose start bound already exceeds the arrival's cutoff, so saturated
// sweeps reject in O(1) and typical placements verify one node.
type worstfitDispatch struct{ cr *ClusterRunner }

func (d *worstfitDispatch) Name() string { return "worstfit" }

func (d *worstfitDispatch) Place(a Arrival) Placement {
	cr := d.cr
	mode, dur, cutoff := cr.arrivalShape(a)
	return Placement{Node: cr.idx.placeWorst(a, mode, dur, cutoff, cr.indexable())}
}

// --- oversub: bestfit, then scavenge instead of rejecting --------------

// oversubDispatch is bestfit with an oversubscription retry: a reserved
// request no node can fit before its deadline is re-dispatched
// Opportunistically (§5 allows several Opportunistic jobs per core), so
// the fleet trades the guarantee for utilization instead of bouncing
// the job.
type oversubDispatch struct{ cr *ClusterRunner }

func (d *oversubDispatch) Name() string { return "oversub" }

func (d *oversubDispatch) Place(a Arrival) Placement {
	cr := d.cr
	var node int
	if cr.indexable() {
		mode, dur, cutoff := cr.arrivalShape(a)
		node = cr.idx.placeBest(a, mode, dur, cutoff)
		if node >= 0 || mode.Kind == qos.KindOpportunistic {
			return Placement{Node: node}
		}
	} else {
		if p := (&probeallDispatch{cr: cr}).Place(a); p.Node >= 0 {
			return p
		}
		if cr.nodes[0].modeFor(a.Tmpl.Hint).Kind == qos.KindOpportunistic {
			return Placement{Node: -1}
		}
	}
	node = cr.idx.placeOpp(a, qos.Opportunistic())
	return Placement{Node: node, Opportunistic: node >= 0}
}

// --- locality: keep related jobs near a home node ----------------------

// dispatchLocalityWindow is how many consecutive nodes the locality
// dispatcher scans around an arrival's home before falling back to
// bestfit.
const dispatchLocalityWindow = 16

// localityDispatch hashes the arrival's admission slot to a home node
// and places at the best (start, load) node within a small window
// around it — the data-locality heuristic of real cluster schedulers,
// here with job groups standing in for data placement. When nothing
// near home is feasible it falls back to bestfit, so its rejection set
// is identical to bestfit's.
type localityDispatch struct{ cr *ClusterRunner }

func (d *localityDispatch) Name() string { return "locality" }

func (d *localityDispatch) Place(a Arrival) Placement {
	cr := d.cr
	n := len(cr.nodes)
	home := int(mix64(uint64(a.Seq)) % uint64(n))
	best, bestStart, bestLoad := -1, int64(0), 0
	w := dispatchLocalityWindow
	if w > n {
		w = n
	}
	for k := 0; k < w; k++ {
		i := (home + k) % n
		if start, ok := cr.nodes[i].probeTemplate(a.Tmpl, a.DL, a.TA); ok {
			load := cr.nodes[i].liveCount()
			if best == -1 || start < bestStart || (start == bestStart && load < bestLoad) {
				best, bestStart, bestLoad = i, start, load
			}
		}
	}
	if best >= 0 {
		return Placement{Node: best}
	}
	return (&bestfitDispatch{cr: cr}).Place(a)
}

// --- the dispatch index ------------------------------------------------

// dispatchIndex is the incrementally maintained node summary behind the
// indexed dispatchers. loadH orders every node by (live load, id);
// durs holds one lazy lower-bound structure per distinct reservation
// duration. The cluster runner feeds it every admission and every
// observed completion, strictly serially, so its state is deterministic
// regardless of how node stepping is sharded.
type dispatchIndex struct {
	cr    *ClusterRunner
	loadH *nodeHeap
	durs  map[int64]*durIndex
	opp   *durIndex // opportunistic feasibility bounds (dur 0)
	// oppSound is whether the opportunistic bounds are trustworthy:
	// fault plans evict reservations early, which frees cores without a
	// completion to observe, so faulted clusters fall back to the
	// exhaustive load-order scan.
	oppSound bool
	popped   []int32 // search scratch, reused across arrivals
}

// durIndex tracks, for one reservation duration, a lower bound per node
// on the earliest feasible start. Nodes whose bound the arrival clock
// has reached sit in avail keyed (load, id) — their optimistic start is
// "now", so only the tie-break orders them; the rest sit in future
// keyed (bound, load, id). Bound 0 means unknown (reset by a
// completion); arrival times never decrease, so nodes migrate from
// future to avail monotonically between resets.
type durIndex struct {
	dur    int64
	bound  []int64
	avail  *nodeHeap
	future *nodeHeap
}

func (cr *ClusterRunner) ensureIndex() {
	if cr.idx != nil {
		return
	}
	n := len(cr.nodes)
	x := &dispatchIndex{
		cr:       cr,
		loadH:    newNodeHeap(n),
		durs:     map[int64]*durIndex{},
		oppSound: cr.cfg.Node.Faults.Empty(),
	}
	for i := 0; i < n; i++ {
		x.loadH.fix(i, nodeKey{0, int64(i), 0})
	}
	x.opp = x.newDurIndex(0)
	cr.idx = x
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

// noteFinished resets node id after observed completions: its live
// load shrank, its timeline freed capacity, and any opportunistic
// finisher lowered the pin cap's demand, so every bound it had learned
// is stale. The node returns to every avail pool with an unknown
// (zero) bound.
func (x *dispatchIndex) noteFinished(id int) {
	load := x.loadOf(id)
	x.loadH.fix(id, nodeKey{load, int64(id), 0})
	for _, di := range x.durs {
		di.reset(id, load)
	}
	x.opp.reset(id, load)
}

// placeBest returns probeall's winner — least (start, load, id) among
// feasible nodes — probing only nodes whose optimistic key could still
// beat the best verified candidate.
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
		return (&probeallDispatch{cr: cr}).Place(a).Node
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
	if !x.oppSound {
		return x.placeOppScan(a, mode)
	}
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

// placeOppScan is the exhaustive load-order scan, kept for clusters
// whose opportunistic bounds cannot be trusted (active fault plans).
func (x *dispatchIndex) placeOppScan(a Arrival, mode qos.Mode) int {
	cr := x.cr
	best := -1
	popped := x.popped[:0]
	for {
		id, _, ok := x.loadH.pop()
		if !ok {
			break
		}
		popped = append(popped, int32(id))
		if _, feasible := cr.nodes[id].peekTemplateMode(a.Tmpl, a.DL, a.TA, mode); feasible {
			best = id
			break
		}
	}
	for _, id := range popped {
		x.loadH.fix(int(id), nodeKey{x.loadOf(int(id)), int64(id), 0})
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
// feasible one. With a sound index (indexed true) candidates whose
// start bound exceeds the cutoff are skipped without probing, and a
// fleet-wide infeasible arrival rejects in O(1).
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

package qos

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"cmpqos/internal/splitmix"
)

// GAC is the Global Admission Controller of §3.1: it admits each job at
// the node its strategy prefers — by default the one offering the
// earliest start — rejecting (or letting the caller negotiate) when no
// node can satisfy the target.
//
// Placement is two steps: Plan decides without changing any node, and
// Commit applies the decision, so a caller can make it durable in between
// (internal/server logs it first). The paper's GAC "probes each CMP
// node's LAC", and Commit still bills every swept node one admission
// test, exactly as if it had been (the modeled §7.5 occupancy and the
// probe counters are durable state). The placement search itself asks
// only the nodes that could still win: the GAC keeps a derived,
// never-persisted table of lower bounds on each node's earliest feasible
// start per request shape, and a node whose bound already proves it
// infeasible or beaten is skipped without a timeline descent. The bounds
// change how much work a Plan does, never its answer (DESIGN §12 has the
// soundness argument; the differential suite in gac_equivalence_test.go
// holds it to a probe-every-node oracle). A GAC is not safe for
// concurrent use.
type GAC struct {
	nodes    []*LAC
	strategy Strategy

	// rows[c][i] packs node i's bound for shape c as bound<<1 | fresh.
	// Zero is "unknown". fresh means the bound was the node's exact
	// earliest start for the shape's floor duration when learned and the
	// GAC has admitted nothing there since; a bound that is not fresh, or
	// that the arrival clock has passed, is worth re-learning before it
	// costs a full probe. One exactly-sized row per shape keeps the table
	// at shapes × nodes words.
	rows   [][]int64
	shapes []shape // shapes[c] keys rows[c]
	// seen[i] is nodes[i].gen as of the bounds held for node i.
	seen        []uint64
	lastArrival int64
	stats       GACStats
}

// shape is a bounds-table key: a demand vector and the octave of a
// reservation length. A bound learned for (vec, 1<<oct) holds for every
// request of that vec whose length is in [1<<oct, 2<<oct), because
// Timeline.EarliestFit is monotone in vec, dur and the arrival time.
type shape struct {
	vec ResourceVector
	oct uint8
}

// dominates reports whether a bound learned for o also bounds s.
func (s shape) dominates(o shape) bool {
	return o.oct <= s.oct &&
		o.vec.Cores <= s.vec.Cores && o.vec.CacheWays <= s.vec.CacheWays &&
		o.vec.MemoryMB <= s.vec.MemoryMB && o.vec.BandwidthMBps <= s.vec.BandwidthMBps
}

const (
	// maxShapes bounds the table's memory. Past it an unseen shape
	// borrows the row of a shape it dominates, read-only.
	maxShapes = 64
	// boundHorizon guards the packed arithmetic: arrival and deadline
	// stamps are client-supplied, and a request stamped outside
	// [0, boundHorizon) is placed without the table.
	boundHorizon = int64(1) << 60
	// neverFits is the bound of a node the shape's vector exceeds.
	neverFits = math.MaxInt64 >> 1
)

// GACStats counts the placement work behind Submit since the GAC was
// built. Charged − Probes − LearningPeeks is the number of timeline
// searches the bounds table saved over probing every node.
type GACStats struct {
	// Charged is how many admission tests sweeps billed to nodes: what
	// probing every node costs, and what the occupancy model records once
	// the placement is committed.
	Charged int64 `json:"charged"`
	// Probes is how many nodes were really asked for a decision.
	Probes int64 `json:"probes"`
	// LearningPeeks is how many floor-duration searches refreshed a bound.
	LearningPeeks int64 `json:"learning_peeks"`
	// PrunedInfeasible counts nodes skipped because their bound ruled out
	// a start before the deadline; PrunedBeaten, because it could not
	// beat the best candidate already in hand.
	PrunedInfeasible int64 `json:"pruned_infeasible"`
	PrunedBeaten     int64 `json:"pruned_beaten"`
	// Resets counts whole-table clears (an arrival stamp ran backwards).
	Resets int64 `json:"resets"`
	// Shapes is the number of request shapes holding a row.
	Shapes int `json:"shapes"`
}

// Strategy selects how a dispatcher picks among willing nodes. The GAC
// and the cluster simulator's dispatcher (internal/sim) both select by
// it, so one name means one placement rule in either.
type Strategy uint8

const (
	// BestFit admits at the node offering the earliest start.
	BestFit Strategy = iota
	// WorstFit admits at the emptiest willing node, spreading load.
	WorstFit
	// Oversub is BestFit, then retries rejected reserved-mode work
	// Opportunistically instead of bouncing it.
	Oversub
	// Locality prefers a window of nodes around the job's hash-derived
	// home, falling back to BestFit.
	Locality
)

var strategyNames = [...]string{BestFit: "bestfit", WorstFit: "worstfit", Oversub: "oversub", Locality: "locality"}

// String returns the strategy's name.
func (s Strategy) String() string { return strategyNames[s] }

// StrategyNames lists the strategy names, sorted.
func StrategyNames() []string {
	names := slices.Clone(strategyNames[:])
	slices.Sort(names)
	return names
}

// ParseStrategy resolves a strategy name; empty selects BestFit.
func ParseStrategy(name string) (Strategy, error) {
	if name == "" {
		return BestFit, nil
	}
	for s, n := range strategyNames {
		if n == name {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("qos: unknown dispatch strategy %q (have %v)", name, StrategyNames())
}

// LocalityWindow is where the locality strategy looks first for job id
// among n nodes: size consecutive nodes from first, wrapping — the job's
// home, SplitMix64(id) mod n, and the 15 nodes after it (all n when
// fewer). The GAC and the cluster simulator both sweep it before falling
// back to bestfit's full sweep.
func LocalityWindow(id, n int) (first, size int) {
	return int(splitmix.Mix(uint64(id)) % uint64(n)), min(16, n)
}

// NewGAC builds a GAC over the given nodes.
func NewGAC(nodes ...*LAC) *GAC {
	if len(nodes) == 0 {
		panic("qos: GAC needs at least one node")
	}
	return &GAC{nodes: nodes, seen: make([]uint64, len(nodes))}
}

// Stats returns the placement counters.
func (g *GAC) Stats() GACStats {
	st := g.stats
	st.Shapes = len(g.rows)
	return st
}

// SetStrategy selects the dispatch strategy by name (ParseStrategy;
// empty is BestFit). Unknown names are an error and leave the strategy
// unchanged.
func (g *GAC) SetStrategy(name string) error {
	s, err := ParseStrategy(name)
	if err != nil {
		return err
	}
	g.strategy = s
	return nil
}

// Placement is a planned admission: the answer a GAC sweep reached and
// the sweeps that reached it. Plan and PlanOrNegotiate compute one
// without changing any node; Commit applies it. A placement describes the
// nodes as they stood when it was planned, so nothing may change a node
// between the two. A placement that is never committed leaves no trace
// in any node.
type Placement struct {
	// Node is the node the job is admitted at, -1 on rejection.
	Node int
	// Mode is the mode the job is admitted in: the asked mode, or the
	// weaker one the oversub retry or the negotiation ladder landed it in.
	// On rejection it is the asked mode.
	Mode Mode
	// Dec is the decision Commit returns, reservation id included.
	Dec Decision

	req    Request // what Commit admits at Node
	sweeps [6]sweep
	nsweep int
}

// sweep is n nodes from first, wrapping; Commit bills each one admission
// test. A ladder rung sweeps at most twice (the locality window and the
// full sweep, or the full sweep and the oversub retry), and there are at
// most three rungs.
type sweep struct{ first, n int }

// Submit sweeps the nodes per the configured strategy and admits the
// request at the winner: Commit(Plan(req)). It returns the chosen node
// index and the decision; node == -1 on global rejection.
func (g *GAC) Submit(req Request) (node int, dec Decision) {
	p := g.Plan(req)
	return p.Node, g.Commit(p)
}

// Plan decides where Submit would admit the request without changing any
// node: only the derived bounds table and the counters move.
func (g *GAC) Plan(req Request) Placement {
	var p Placement
	g.plan(&p, req)
	return p
}

// Commit applies a placement planned against the nodes as they still
// stand: it bills every swept node one admission test, admits the job at
// the winner and returns the planned decision.
func (g *GAC) Commit(p Placement) Decision {
	for _, s := range p.sweeps[:p.nsweep] {
		end := s.first + s.n
		for _, lac := range g.nodes[s.first:min(end, len(g.nodes))] {
			lac.charge()
		}
		for _, lac := range g.nodes[:max(end-len(g.nodes), 0)] {
			lac.charge()
		}
	}
	if p.Node == -1 {
		return p.Dec
	}
	if dec := g.nodes[p.Node].Admit(p.req); dec != p.Dec {
		panic(fmt.Sprintf("qos: node %d admitted %+v, planned %+v: a node changed between Plan and Commit", p.Node, dec, p.Dec))
	}
	if p.Dec.ReservationID != 0 {
		// The new reservation may have pushed this node's starts later:
		// its bounds still hold but are no longer exact.
		for _, row := range g.rows {
			row[p.Node] &^= 1
		}
	}
	return p.Dec
}

// plan runs one rung's sweeps into p: its answer replaces p's, its
// sweeps join those of the rungs before it.
func (g *GAC) plan(p *Placement, req Request) {
	if req.Arrival < g.lastArrival {
		// A bound learned at a later arrival says nothing about an
		// earlier one. Stamps are client-supplied, so this can happen.
		for _, row := range g.rows {
			clear(row)
		}
		g.stats.Resets++
	}
	g.lastArrival = req.Arrival

	asked := req.Mode
	n := len(g.nodes)
	node, dec := -1, Decision{}
	if g.strategy == Locality {
		first, size := LocalityWindow(req.JobID, n)
		node, dec = g.scan(p, req, first, size)
	}
	if node == -1 {
		// For locality: nothing near home, so fall back to the full sweep
		// and never reject a job bestfit would have placed.
		node, dec = g.scan(p, req, 0, n)
	}
	if node == -1 && g.strategy == Oversub && req.Mode.Kind != KindOpportunistic {
		// Oversubscribe: the reserved-mode request fits nowhere, but the
		// fleet may still have unreserved cores — run it Opportunistically
		// rather than bouncing it.
		req.Mode = Opportunistic()
		node, dec = g.scan(p, req, 0, n)
	}
	if node == -1 {
		p.Node, p.Mode, p.Dec = -1, asked, Decision{Reason: "qos: no node can satisfy the QoS target"}
		return
	}
	if req.Mode.Kind != KindOpportunistic {
		// Peek answers as Admit does but reserves nothing; Admit's
		// reservation takes the timeline's next id.
		dec.ReservationID = g.nodes[node].timeline.nextID
	}
	p.Node, p.Mode, p.Dec, p.req = node, req.Mode, dec, req
}

// scan sweeps n nodes from first (wrapping), records the sweep in p, and
// returns the node Submit should admit at with its Peek answer, or -1:
// the willing node with the earliest start, or under worstfit the fewest
// live reservations, ties to the node swept first. Every node swept is
// billed one admission test when p is committed. It is asked for a
// decision only while the earliest start it could offer — its arrival,
// or its learned bound if later — still meets the deadline and beats the
// best start in hand. Nodes that do not place earliest-fit have no bound
// and are asked until a start at the arrival itself settles the sweep,
// which is also how an Opportunistic request (it starts on arrival
// wherever it lands) stops at the first willing node.
func (g *GAC) scan(p *Placement, req Request, first, n int) (best int, bestDec Decision) {
	p.sweeps[p.nsweep] = sweep{first, n}
	p.nsweep++
	g.stats.Charged += int64(n)
	row, vec, floor, limit, learn := g.boundsFor(req)
	ta := req.Arrival
	byLoad := g.strategy == WorstFit
	best, bestLen := -1, 0
	for k := 0; k < n; k++ {
		i := first + k
		if i >= len(g.nodes) {
			i -= len(g.nodes)
		}
		lac := g.nodes[i]
		if byLoad && best != -1 && lac.timeline.Len() >= bestLen {
			g.stats.PrunedBeaten++
			continue
		}
		byStart := !byLoad && best != -1
		lb := ta
		if row != nil && lac.PlacesEarliestFit() {
			if lac.gen != g.seen[i] {
				// Something behind the GAC's back (a completion, a fault,
				// a controller) may have moved this node's starts earlier.
				for _, r := range g.rows {
					r[i] = 0
				}
				g.seen[i] = lac.gen
			}
			e := row[i]
			lb = max(lb, e>>1)
			stale := e&1 == 0 || e>>1 < ta
			if stale && learn && lb <= limit && !(byStart && lb >= bestDec.Start) {
				// The bound does not rule the node out but may be loose:
				// tighten it before paying for a full decision.
				s, ok := lac.earliestStart(vec, ta, floor)
				if s = min(s, neverFits-1); !ok {
					s = neverFits
				}
				g.stats.LearningPeeks++
				row[i] = s<<1 | 1
				lb = s
			}
		}
		if lb > limit {
			g.stats.PrunedInfeasible++
			continue
		}
		if byStart && lb >= bestDec.Start {
			g.stats.PrunedBeaten++
			continue
		}
		g.stats.Probes++
		d := lac.Peek(req)
		switch {
		case !d.Accepted:
		case byLoad:
			best, bestDec, bestLen = i, d, lac.timeline.Len()
		case best == -1 || d.Start < bestDec.Start:
			best, bestDec = i, d
		}
	}
	return best, bestDec
}

// boundsFor resolves a request to its row of the bounds table. row is nil
// when the request has no earliest-fit placement to bound (Opportunistic,
// malformed, or stamped past boundHorizon); every node is then asked.
// Otherwise vec and floor are what a learning peek searches for, limit is
// the last start that meets the deadline, and learn is whether the row
// may be written (false for a borrowed row).
func (g *GAC) boundsFor(req Request) (row []int64, vec ResourceVector, floor, limit int64, learn bool) {
	limit = math.MaxInt64
	rum, ok := AsRUM(req.Target)
	if !ok || req.Arrival < 0 || req.Arrival >= boundHorizon || rum.Deadline < 0 || rum.Deadline >= boundHorizon {
		return nil, vec, 0, limit, false
	}
	// The reservation length LAC.decide will ask its timeline for.
	var dur int64
	switch req.Mode.Kind {
	case KindStrict:
		if dur = rum.MaxWallClock; dur == 0 {
			dur = foreverCycles
		}
	case KindElastic:
		dur = req.Mode.ReservationLength(rum.MaxWallClock)
	}
	if dur <= 0 {
		return nil, vec, 0, limit, false
	}
	limit = neverFits - 1
	if rum.Deadline != 0 {
		limit = rum.Deadline - dur
	}
	key := shape{vec: rum.Resources, oct: uint8(bits.Len64(uint64(dur)) - 1)}
	// One pass over the (at most maxShapes) known shapes finds the
	// request's own row or, once the table is full, a maximal shape it
	// dominates.
	full := len(g.shapes) == maxShapes
	c, own := -1, false
	for j, s := range g.shapes {
		if s == key {
			c, own = j, true
			break
		}
		if full && key.dominates(s) && (c == -1 || s.dominates(g.shapes[c])) {
			c = j
		}
	}
	switch {
	case own:
	case !full:
		c, own = len(g.rows), true
		g.shapes = append(g.shapes, key)
		g.rows = append(g.rows, make([]int64, len(g.nodes)))
	case c == -1:
		return nil, vec, 0, limit, false
	default:
		key = g.shapes[c] // borrowed, read-only
	}
	return g.rows[c], key.vec, int64(1) << key.oct, limit, own
}

// SubmitOrNegotiate is Submit plus the §3.1 negotiation loop:
// Commit(PlanOrNegotiate(req, maxSlack)). It reports the mode the job
// was finally admitted in.
func (g *GAC) SubmitOrNegotiate(req Request, maxSlack float64) (node int, finalMode Mode, dec Decision) {
	p := g.PlanOrNegotiate(req, maxSlack)
	return p.Node, p.Mode, g.Commit(p)
}

// PlanOrNegotiate is Plan plus the §3.1 negotiation loop: when the
// requested mode is rejected everywhere, it retries with progressively
// weaker modes (Strict → Elastic(maxSlack) → Opportunistic). The
// placement bills the sweeps of every rung it tried.
func (g *GAC) PlanOrNegotiate(req Request, maxSlack float64) Placement {
	var p Placement
	p.Node, p.Mode, p.Dec = negotiate(func(r Request) (int, Mode, Decision) {
		g.plan(&p, r)
		return p.Node, p.Mode, p.Dec
	}, req, maxSlack)
	return p
}

// negotiate walks the mode ladder over any placement step (the GAC's
// plan, or the test oracle's submit), which answers the node, the mode it
// admitted in and the decision.
func negotiate(try func(Request) (int, Mode, Decision), req Request, maxSlack float64) (node int, mode Mode, dec Decision) {
	modes := append(make([]Mode, 0, 3), req.Mode)
	if req.Mode.Kind == KindStrict && maxSlack > 0 {
		modes = append(modes, Elastic(maxSlack))
	}
	if req.Mode.Kind != KindOpportunistic {
		modes = append(modes, Opportunistic())
	}
	for _, m := range modes {
		r := req
		r.Mode = m
		if n, am, d := try(r); d.Accepted {
			return n, am, d
		}
	}
	return -1, req.Mode, Decision{Reason: "qos: negotiation exhausted all modes"}
}

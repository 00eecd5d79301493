package main

import (
	"container/heap"
	"math"
	"math/rand"

	"cmpqos/internal/qos"
)

// The admit tape is a virtual-time event stream: submissions arrive as a
// Poisson process on a virtual cycle clock and every accepted grant
// completes (is cancelled) at a virtual instant inside its reservation.
// Requests carry their own arrival/now stamps, so the daemon's decisions
// depend only on the tape — never on wall time — and repeat exactly.
//
// Every grant is cancelled exactly once because the daemon's job table
// only shrinks on cancel: a mix that cancelled fewer grants than it
// admitted would grow the snapshot without bound and never be
// stationary. The submit:cancel ratio therefore follows from the accept
// rate (≈ 1 : accept_frac) instead of being fixed.

const (
	// Per-node capacity the daemon defaults to (4 cores, 16 ways).
	nodeWays = 16

	twMean = int64(1_000_000_000) // mean requested wall-clock, cycles
	// offeredLoad is the nominal way-dimension demand over capacity. It
	// counts Opportunistic requests (which reserve nothing) and full
	// wall-clocks (jobs finish early), so it takes 2x for the nodes to
	// saturate: measured accept rates are 0.64–0.70 on 4 nodes and
	// 0.72–0.75 on 200 and up.
	offeredLoad = 2.0
	meanWays    = 4.5 // ways are uniform on 2..7
)

type opKind uint8

const (
	opSubmit opKind = iota
	opCancel
)

const (
	modeStrict = iota
	modeElastic
	modeOpportunistic
)

var modeNames = [...]string{"strict", "elastic", "opportunistic"}

// elasticSlack is the X of every Elastic(X) request on the tape.
const elasticSlack = 0.1

// op is one request of the tape. For a cancel only jobID, node, mode and
// at (the completion instant) are meaningful.
type op struct {
	kind     opKind
	jobID    int
	mode     int
	ways     int
	tw       int64
	deadline int64
	at       int64 // arrival (submit) or now (cancel), virtual cycles
	node     int   // cancel: the node that holds the grant
}

func (o op) qosMode() qos.Mode {
	switch o.mode {
	case modeElastic:
		return qos.Elastic(elasticSlack)
	case modeOpportunistic:
		return qos.Opportunistic()
	}
	return qos.Strict()
}

// rum is the target the daemon resolves a submit into.
func (o op) rum() qos.RUM {
	return qos.RUM{
		Resources:    qos.ResourceVector{Cores: 1, CacheWays: o.ways},
		MaxWallClock: o.tw,
		Deadline:     o.deadline,
	}
}

// request is the submit as the admission controllers see it.
func (o op) request() qos.Request {
	return qos.Request{JobID: o.jobID, Target: o.rum(), Mode: o.qosMode(), Arrival: o.at}
}

// grant is a live accepted job awaiting its completion instant.
type grant struct {
	due   int64
	jobID int
	node  int
	mode  int
}

type grantHeap []grant

func (h grantHeap) Len() int { return len(h) }
func (h grantHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].jobID < h[j].jobID
}
func (h grantHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *grantHeap) Push(x any)   { *h = append(*h, x.(grant)) }
func (h *grantHeap) Pop() any {
	old := *h
	g := old[len(old)-1]
	*h = old[:len(old)-1]
	return g
}

// tape generates the op stream. It is closed-loop: the caller reports
// each submit's outcome through granted, which schedules the cancel.
type tape struct {
	rng     *rand.Rand
	gap     float64 // mean inter-arrival, cycles
	clock   float64 // next arrival instant
	nextJob int
	live    grantHeap
}

func newTape(seed int64, nodes int) *tape {
	t := &tape{
		rng:     rand.New(rand.NewSource(seed)),
		gap:     float64(twMean) * meanWays / (nodeWays * float64(nodes) * offeredLoad),
		nextJob: 1,
	}
	t.advance()
	return t
}

func (t *tape) advance() {
	t.clock += -math.Log(1-t.rng.Float64())*t.gap + 1
}

// next returns the next op in virtual-time order: a due completion if
// one precedes the next arrival, otherwise the arrival.
func (t *tape) next() op {
	if len(t.live) > 0 && t.live[0].due <= int64(t.clock) {
		g := heap.Pop(&t.live).(grant)
		return op{kind: opCancel, jobID: g.jobID, node: g.node, mode: g.mode, at: g.due}
	}
	o := op{kind: opSubmit, jobID: t.nextJob, at: int64(t.clock)}
	t.nextJob++
	t.advance()
	switch r := t.rng.Float64(); {
	case r < 0.6:
		o.mode = modeStrict
	case r < 0.8:
		o.mode = modeElastic
	default:
		o.mode = modeOpportunistic
	}
	o.ways = 2 + t.rng.Intn(6)
	o.tw = twMean/2 + t.rng.Int63n(twMean)
	// The paper's 50/30/20 tight/moderate/relaxed deadline mix.
	factor := 1.2
	switch r := t.rng.Float64(); {
	case r >= 0.8:
		factor = 3
	case r >= 0.5:
		factor = 2
	}
	o.deadline = o.at + int64(factor*float64(o.tw))
	return o
}

// granted records an accepted submit: the job completes somewhere in the
// last 30% of its requested wall-clock, counted from its granted start.
func (t *tape) granted(o op, node int, start int64) {
	frac := 0.7 + 0.3*t.rng.Float64()
	heap.Push(&t.live, grant{due: start + int64(frac*float64(o.tw)), jobID: o.jobID, node: node, mode: o.mode})
}

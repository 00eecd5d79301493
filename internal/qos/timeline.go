package qos

import (
	"fmt"
	"math"
)

// Reservation is one job's hold on resources over a time interval
// [Start, End).
type Reservation struct {
	ID    int
	JobID int
	Vec   ResourceVector
	Start int64
	End   int64
}

// Timeline tracks resource reservations against a fixed capacity vector
// and answers the admission controller's fit queries. It is the "list of
// vectors that encode processor core and cache capacity resources and
// the timeslots in which they are available" of §5, stored as an
// indexed usage profile: a balanced tree of time boundaries carrying
// usage deltas and prefix-sum aggregates (profile.go), a companion tree
// of reservations keyed by (Start, ID) with end aggregates
// (resindex.go), and a count of the live ones. Both trees are treaps
// whose priorities hash their keys, so a timeline's shape is a function
// of its contents, not of the order they came in. Every admission query
// and every mutation through a reservation's node is O(log n) in live
// reservations; behavior is bit-identical to the naive reservation-list
// scan it replaced, which survives as the test-only naiveTimeline
// reference (naive_timeline_test.go) that the differential fuzzer checks
// this implementation against.
//
// The Timeline keeps no id index: its owner, the LAC, holds each job's
// reservation node (LAC.resByJob) and releases, shrinks and tests it
// through that. Release, ShrinkVec and Get, which name a reservation by
// id alone, find it by a walk of the index, O(n).
type Timeline struct {
	capacity ResourceVector
	prof     profile
	idx      resIndex
	live     int // reservations in idx
	nextID   int
}

// MaxCapacity bounds every component of a capacity a Timeline accepts:
// 2^30 − 1. A declared dimension's usage then lies in [0, capacity]
// and, while one edge of a reservation is in and the other not yet, in
// [−capacity, 2·capacity], so every value a profile node stores fits in
// int32 (ivec).
const MaxCapacity = 1<<30 - 1

// CheckCapacity reports whether c can be a node's capacity: non-negative,
// not zero, and no component above MaxCapacity.
func CheckCapacity(c ResourceVector) error {
	if !c.Valid() || c.IsZero() {
		return fmt.Errorf("qos: invalid timeline capacity %v", c)
	}
	if max(c.Cores, c.CacheWays, c.MemoryMB, c.BandwidthMBps) > MaxCapacity {
		return fmt.Errorf("qos: timeline capacity %v has a component above %d", c, MaxCapacity)
	}
	return nil
}

// NewTimeline builds a timeline for a node with the given capacity. It
// panics on a capacity CheckCapacity refuses.
func NewTimeline(capacity ResourceVector) *Timeline {
	if err := CheckCapacity(capacity); err != nil {
		panic(err.Error())
	}
	return &Timeline{capacity: capacity, nextID: 1}
}

// Capacity returns the node's total capacity vector.
func (t *Timeline) Capacity() ResourceVector { return t.capacity }

// Len returns the number of live reservations.
func (t *Timeline) Len() int { return t.live }

// UsageAt returns the summed reservation vector at time x: the profile
// prefix sum over boundaries ≤ x. A dimension the capacity does not
// declare is not tracked and reads 0.
func (t *Timeline) UsageAt(x int64) ResourceVector {
	return t.prof.prefixAt(x).vec()
}

// AvailableAt returns capacity minus usage at time x.
func (t *Timeline) AvailableAt(x int64) ResourceVector {
	return t.capacity.Sub(t.UsageAt(x))
}

// fits reports whether adding vec over [start, start+dur) stays within
// capacity at every instant — no over-limit instant inside the window.
// Usage is piecewise constant, so the profile checks the window start
// and prunes to boundaries whose prefix could exceed the headroom. A
// degenerate window (dur ≤ 0) checks its start instant, as the naive
// reference does.
func (t *Timeline) fits(vec ResourceVector, start, dur int64) bool {
	_, _, over := t.prof.firstOver(start, start+dur, limitFor(t.capacity, vec))
	return !over
}

// EarliestFit returns the earliest start ≥ now at which vec fits for dur
// cycles with the window ending no later than deadline (0 = no
// deadline). ok is false when no such slot exists. This is the FCFS
// admission test of §5.
//
// The search walks the profile instead of scanning candidates: probe the
// window at s; if some instant overflows in dimension d, jump s to the
// next boundary where d's usage is back under the headroom (a
// reservation end — availability only increases at ends, so no start
// between the blockage and that boundary can fit) and re-probe. Each
// round is O(log n) and skips an entire blocked run, so a fully packed
// timeline resolves in a handful of descents.
func (t *Timeline) EarliestFit(vec ResourceVector, now, dur, deadline int64) (start int64, ok bool) {
	if !vec.Fits(t.capacity) || dur <= 0 {
		return 0, false
	}
	limit := limitFor(t.capacity, vec)
	s := now
	for {
		if deadline != 0 && s+dur > deadline {
			return 0, false // candidates ascend; later ones are worse
		}
		at, d, over := t.prof.firstOver(s, s+dur, limit)
		if !over {
			return s, true
		}
		next, ok := fitDimAfter(t.prof.root, 0, at, d, limit[d])
		if !ok {
			// vec fits the capacity, so a reservation covers at and its
			// end is a later boundary where d frees up.
			panic(fmt.Sprintf("qos: dimension %d never frees up after %d", d, at))
		}
		s = next
	}
}

// LatestFit returns the latest start ≥ now such that vec fits for dur
// cycles ending no later than deadline. It is used by automatic mode
// downgrade, which places the fall-back reservation "as far away as
// possible" (§3.4). ok is false when no slot exists.
//
// The mirror of EarliestFit's walk: probe the window at s descending; if
// it overlaps an over-limit segment, find where that segment's blocked
// run in the offending dimension begins (a reservation start — usage
// only rises at starts) and slide the window to end there.
func (t *Timeline) LatestFit(vec ResourceVector, now, dur, deadline int64) (start int64, ok bool) {
	if !vec.Fits(t.capacity) || dur <= 0 || deadline == 0 || deadline-dur < now {
		return 0, false
	}
	limit := limitFor(t.capacity, vec)
	s := deadline - dur
	for {
		if s < now {
			return 0, false
		}
		k, d, over := lastOverBefore(t.prof.root, uvec{}, s+dur, limit)
		if over {
			// k starts the last over-limit segment below the window end;
			// it only blocks if that segment reaches into the window.
			if nk, has := t.prof.nextKey(k); has && nk <= s {
				over = false
			}
		}
		if !over {
			return s, true
		}
		// Walk to the head of the blocked run in dimension d containing
		// k: the first boundary after the last fitting one (or the very
		// first boundary when d has been over from the beginning).
		var w int64
		if z, ok := lastFitDimBefore(t.prof.root, 0, k, d, limit[d]); ok {
			w, _ = t.prof.nextKey(z)
		} else {
			w = t.prof.minKey() // an over segment has boundaries
		}
		s = w - dur
	}
}

// Reserve records a reservation and returns its ID. It panics if the
// window does not actually fit — callers must have verified fit, so a
// violation is a scheduler bug, not a runtime condition.
func (t *Timeline) Reserve(jobID int, vec ResourceVector, start, dur int64) int {
	return t.reserve(jobID, vec, start, dur).res.ID
}

// reserve is Reserve returning the reservation's node.
func (t *Timeline) reserve(jobID int, vec ResourceVector, start, dur int64) *resNode {
	if !vec.Valid() || !t.fits(vec, start, dur) {
		panic(fmt.Sprintf("qos: reservation %v @[%d,%d) does not fit", vec, start, start+dur))
	}
	id := t.nextID
	t.nextID++
	return t.insert(Reservation{ID: id, JobID: jobID, Vec: vec, Start: start, End: start + dur})
}

// insert threads a reservation through the profile, in the dimensions
// the capacity declares, and the index.
func (t *Timeline) insert(res Reservation) *resNode {
	v := tracked(t.capacity, res.Vec)
	t.prof.update(res.Start, v, +1)
	t.prof.update(res.End, v.neg(), +1)
	n := &resNode{res: res}
	t.idx.insert(n)
	t.live++
	return n
}

// drop is insert's inverse. The declared dimensions never change
// (SetCapacity), so the edges it takes out are the ones insert put in.
func (t *Timeline) drop(n *resNode) {
	v := tracked(t.capacity, n.res.Vec)
	t.prof.update(n.res.Start, v.neg(), -1)
	t.prof.update(n.res.End, v, -1)
	t.idx.remove(n.res)
	t.live--
}

// Release removes a reservation by ID; it is a no-op for unknown IDs
// (already released). It finds the reservation by a walk, O(n).
func (t *Timeline) Release(id int) {
	if n := resFind(t.idx.root, id); n != nil {
		t.drop(n)
	}
}

// SetCapacity changes the node's capacity from time `from` onward — the
// fault-injection path: ways go dark or cores fail (shrink), and later
// recover (grow). Reservation intervals before `from` already happened
// and are left alone. When the new capacity overcommits some instant ≥
// from, reservations are evicted until every instant fits again; victims
// are the latest-admitted holds at the first overcommitted instant
// (latest start, then largest ID), matching the FCFS contract — the jobs
// admitted first keep their slots. Evicted reservations are returned so
// the caller can re-negotiate or record violations for their jobs.
//
// It panics on a capacity CheckCapacity refuses, and on one that would
// change which of memory and bandwidth the node declares: the profile
// tracks exactly the declared dimensions, so it could not account for a
// newly declared one.
func (t *Timeline) SetCapacity(capacity ResourceVector, from int64) []Reservation {
	if err := CheckCapacity(capacity); err != nil {
		panic(err.Error())
	}
	if (capacity.MemoryMB > 0) != (t.capacity.MemoryMB > 0) || (capacity.BandwidthMBps > 0) != (t.capacity.BandwidthMBps > 0) {
		panic(fmt.Sprintf("qos: capacity %v declares other dimensions than %v", capacity, t.capacity))
	}
	t.capacity = capacity
	limit := limitFor(capacity, ResourceVector{})
	var evicted []Reservation
	for {
		at, _, over := t.prof.firstOver(from, math.MaxInt64/2, limit)
		if !over {
			return evicted
		}
		v := t.idx.victim(at)
		if v == nil {
			// Usage over the capacity at at is some reservation's.
			panic(fmt.Sprintf("qos: usage over capacity %v at %d with no reservation covering it", capacity, at))
		}
		evicted = append(evicted, v.res)
		t.drop(v)
	}
}

// ShrinkVec replaces reservation id's vector with a smaller one — the
// elastic way-shedding path under cache faults. It refuses a negative
// component and the growth of any component (growth would need a fresh
// fit check), and reports whether the reservation was found, by a
// walk, O(n), and shrunk.
func (t *Timeline) ShrinkVec(id int, vec ResourceVector) bool {
	n := resFind(t.idx.root, id)
	return n != nil && t.shrink(n, vec)
}

// shrink is ShrinkVec on a live reservation's node.
func (t *Timeline) shrink(n *resNode, vec ResourceVector) bool {
	if !vec.within(n.res.Vec) {
		return false
	}
	d := tracked(t.capacity, vec).add(tracked(t.capacity, n.res.Vec).neg())
	t.prof.update(n.res.Start, d, 0)
	t.prof.update(n.res.End, d.neg(), 0)
	n.res.Vec = vec // Vec feeds no index aggregate; in-place is safe
	return true
}

// Get returns a reservation by ID, found by a walk, O(n).
func (t *Timeline) Get(id int) (Reservation, bool) {
	if n := resFind(t.idx.root, id); n != nil {
		return n.res, true
	}
	return Reservation{}, false
}

// Prune drops reservations that ended at or before now, keeping the
// tree at the live working set.
func (t *Timeline) Prune(now int64) {
	for {
		n := t.idx.endedBy(now)
		if n == nil {
			return
		}
		t.drop(n)
	}
}

// Reservations returns a copy of the live reservations, sorted by start
// time (ID on ties), for diagnostics and trace rendering.
func (t *Timeline) Reservations() []Reservation {
	return resAppend(t.idx.root, make([]Reservation, 0, t.live))
}

// restore re-inserts a snapshot reservation, preserving its ID, after
// re-verifying the capacity invariant. It returns the reservation's
// node, nil when it did not fit.
func (t *Timeline) restore(res Reservation) *resNode {
	if !t.fits(res.Vec, res.Start, res.End-res.Start) {
		return nil
	}
	return t.insert(res)
}

// AvailabilityStep is one segment of the piecewise-constant availability
// profile: the capacity left unreserved over [Start, End).
type AvailabilityStep struct {
	Start, End int64
	Free       ResourceVector
}

// Availability returns the availability profile over [from, to): the
// step function of unreserved capacity, in time order. Placement layers
// (GAC heuristics, visualizations) consume this instead of re-deriving
// it from raw reservations.
func (t *Timeline) Availability(from, to int64) []AvailabilityStep {
	return t.AppendAvailability(nil, from, to)
}

// AppendAvailability is Availability appending into dst — zero-alloc
// when dst has capacity for the profile's steps (one per boundary in
// the window, plus one). The profile's boundaries are already in time
// order, so one in-order walk cuts every step.
func (t *Timeline) AppendAvailability(dst []AvailabilityStep, from, to int64) []AvailabilityStep {
	if to <= from {
		return dst
	}
	st := walkState{
		run:   t.prof.prefixAt(from),
		steps: dst,
		prev:  from,
		cap:   t.capacity,
	}
	st.free = t.capacity.Sub(st.run.vec())
	// The walk accumulates deltas from zero; prefixAt(from) was only
	// needed for the first step's Free, so rewind the running sum.
	st.run = uvec{}
	walkAvail(t.prof.root, &st, from, to)
	return append(st.steps, AvailabilityStep{Start: st.prev, End: to, Free: st.free})
}

package qos

import (
	"math"

	"cmpqos/internal/splitmix"
)

// The usage profile: the incrementally-maintained dual of the
// reservation list. Instead of re-summing every reservation per query
// (the naive O(n) UsageAt the original Timeline was built on), the
// profile keeps one node per distinct time boundary holding the *net
// usage change* at that instant, ordered by time in a treap. Usage at
// any instant is then a prefix sum of deltas, and every subtree carries
// (sum, max-prefix, min-prefix) per resource dimension so the admission
// queries become tree descents:
//
//	usage at x                      prefix sum of keys ≤ x      O(log n)
//	first over-limit instant ≥ x    max-prefix descent          O(log n)
//	last over-limit instant < x     max-prefix descent          O(log n)
//	next instant where dim d fits   min-prefix descent          O(log n)
//
// Usage is piecewise constant between boundaries (the §5 timeslot
// model), so these four queries are exactly what EarliestFit/LatestFit/
// SetCapacity need; see timeline.go for how they compose.
//
// Boundaries are reference-counted: each reservation contributes one
// edge at Start (+Vec) and one at End (−Vec). A node stays alive while
// any edge references it — even when coinciding edges cancel to a zero
// delta — because the availability profile reports a (degenerate) step
// at every live boundary, exactly like the naive reference.

// nDims is the number of managed resource dimensions.
const nDims = 4

// Dimension order inside a uvec.
const (
	dimCores = 0
	dimWays  = 1
	dimMem   = 2
	dimBW    = 3
)

// uvec is the profile's internal usage vector: one int64 per dimension
// so prefix sums and sentinel arithmetic never overflow int ranges.
type uvec [nDims]int64

// unconstrained is the limit of a dimension the node does not bound.
// Quarter-range keeps base+aggregate arithmetic overflow-free.
const unconstrained = int64(math.MaxInt64) / 4

func toUvec(v ResourceVector) uvec {
	return uvec{int64(v.Cores), int64(v.CacheWays), int64(v.MemoryMB), int64(v.BandwidthMBps)}
}

func (u uvec) vec() ResourceVector {
	return ResourceVector{
		Cores:         int(u[dimCores]),
		CacheWays:     int(u[dimWays]),
		MemoryMB:      int(u[dimMem]),
		BandwidthMBps: int(u[dimBW]),
	}
}

func (u uvec) add(o uvec) uvec {
	for d := range u {
		u[d] += o[d]
	}
	return u
}

func (u uvec) neg() uvec {
	for d := range u {
		u[d] = -u[d]
	}
	return u
}

// limitFor returns the per-dimension usage ceiling other reservations
// may occupy while vec still fits under capacity: capacity − vec, with
// the optional dimensions (memory, bandwidth) unconstrained when the
// capacity does not declare them — the same rule ResourceVector.Fits
// applies (§3.2's treatment of not-yet-managed resources).
func limitFor(capacity, vec ResourceVector) uvec {
	l := uvec{
		int64(capacity.Cores - vec.Cores),
		int64(capacity.CacheWays - vec.CacheWays),
		unconstrained,
		unconstrained,
	}
	if capacity.MemoryMB > 0 {
		l[dimMem] = int64(capacity.MemoryMB - vec.MemoryMB)
	}
	if capacity.BandwidthMBps > 0 {
		l[dimBW] = int64(capacity.BandwidthMBps - vec.BandwidthMBps)
	}
	return l
}

// overDim returns the lowest dimension where u exceeds limit, or -1.
func overDim(u, limit uvec) int {
	for d := range u {
		if u[d] > limit[d] {
			return d
		}
	}
	return -1
}

// profNode is one time boundary in the usage profile. It stores no
// delta of its own: the net usage change at key is its subtree's sum
// less its children's (delta), which keeps the node at 128 bytes.
type profNode struct {
	left, right *profNode
	key         int64  // boundary instant, unique per node
	prio        uint32 // treap heap priority (deterministic stream)
	refs        int32  // reservation edges (starts + ends) at this key
	sum         uvec   // Σ delta over subtree
	maxP        uvec   // max in-subtree prefix sum (per dim, key order)
	minP        uvec   // min in-subtree prefix sum
}

// delta is the net usage change at n's key. Read it before relinking
// a child of n: it is derived from the children n's sum was pulled with.
func (n *profNode) delta() uvec {
	u := n.sum
	for d := range u {
		u[d] -= profSumD(n.left, d) + profSumD(n.right, d)
	}
	return u
}

// through is the prefix sum through n within its subtree: the sum of
// its left subtree and its own delta.
func through(n *profNode) uvec {
	u := n.sum
	if n.right != nil {
		for d := range u {
			u[d] -= n.right.sum[d]
		}
	}
	return u
}

// pull recomputes n's subtree aggregates from its children and its own
// delta.
func (n *profNode) pull(delta uvec) {
	var ls uvec
	if n.left != nil {
		ls = n.left.sum
	}
	for d := 0; d < nDims; d++ {
		pn := ls[d] + delta[d] // prefix through n within this subtree
		sum, mx, mn := pn, pn, pn
		if n.left != nil {
			if n.left.maxP[d] > mx {
				mx = n.left.maxP[d]
			}
			if n.left.minP[d] < mn {
				mn = n.left.minP[d]
			}
		}
		if n.right != nil {
			sum += n.right.sum[d]
			if v := pn + n.right.maxP[d]; v > mx {
				mx = v
			}
			if v := pn + n.right.minP[d]; v < mn {
				mn = v
			}
		}
		n.sum[d], n.maxP[d], n.minP[d] = sum, mx, mn
	}
}

func profSumD(n *profNode, d int) int64 {
	if n == nil {
		return 0
	}
	return n.sum[d]
}

// mayExceed reports whether some prefix inside sub, offset by base, can
// exceed limit in any dimension — the subtree-pruning test.
func mayExceed(base uvec, sub *profNode, limit uvec) bool {
	if sub == nil {
		return false
	}
	for d := 0; d < nDims; d++ {
		if base[d]+sub.maxP[d] > limit[d] {
			return true
		}
	}
	return false
}

// profile is the treap of boundary nodes. Its priorities come from the
// Timeline's deterministic stream (SplitMix64), which keeps its shape
// reproducible.
type profile struct {
	root *profNode
}

// update applies one edge mutation at key: delta += d, refs += dref.
// It inserts the boundary when absent (dref > 0), drawing its priority
// from rng, and removes it when the reference count drains to zero.
func (p *profile) update(key int64, d uvec, dref int32, rng *splitmix.Rand) {
	p.root = p.upd(p.root, key, d, dref, rng)
}

func (p *profile) upd(n *profNode, key int64, d uvec, dref int32, rng *splitmix.Rand) *profNode {
	if n == nil {
		if dref <= 0 {
			panic("qos: usage-profile edge underflow (release of an unknown boundary)")
		}
		// The high half of the draw: a 32-bit priority packs beside refs,
		// keeping the node in the 128-byte size class.
		nn := &profNode{key: key, prio: uint32(rng.Uint64() >> 32), refs: dref}
		nn.pull(d)
		return nn
	}
	// The edge lands somewhere in n's subtree, so its sum moves by d. A
	// boundary is dropped only when its last edge leaves, and that edge
	// cancels the boundary's whole delta: the sum moves by d then too.
	n.sum = n.sum.add(d)
	switch {
	case key < n.key:
		n.left = p.upd(n.left, key, d, dref, rng)
		if n.left != nil && n.left.prio > n.prio {
			return rotRight(n)
		}
	case key > n.key:
		n.right = p.upd(n.right, key, d, dref, rng)
		if n.right != nil && n.right.prio > n.prio {
			return rotLeft(n)
		}
	default:
		n.refs += dref
		if n.refs <= 0 {
			return profMerge(n.left, n.right)
		}
	}
	n.pull(n.delta())
	return n
}

// rotRight lifts n.left above n.
func rotRight(n *profNode) *profNode {
	l := n.left
	dn, dl := n.delta(), l.delta()
	n.left = l.right
	n.pull(dn)
	l.right = n
	l.pull(dl)
	return l
}

func rotLeft(n *profNode) *profNode {
	r := n.right
	dn, dr := n.delta(), r.delta()
	n.right = r.left
	n.pull(dn)
	r.left = n
	r.pull(dr)
	return r
}

// profMerge joins two treaps where every key in a precedes every key in b.
func profMerge(a, b *profNode) *profNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		da := a.delta()
		a.right = profMerge(a.right, b)
		a.pull(da)
		return a
	}
	db := b.delta()
	b.left = profMerge(a, b.left)
	b.pull(db)
	return b
}

// prefixAt returns the usage vector on the segment containing instant x:
// the sum of all deltas at keys ≤ x.
func (p *profile) prefixAt(x int64) uvec {
	var u uvec
	n := p.root
	for n != nil {
		if n.key <= x {
			u = u.add(through(n))
			n = n.right
		} else {
			n = n.left
		}
	}
	return u
}

// firstOver returns the earliest instant t in [lo, hi) where usage
// exceeds limit in some dimension, with the lowest offending dimension.
// Usage is right-continuous, so the answer is either lo itself or a
// boundary key in (lo, hi).
func (p *profile) firstOver(lo, hi int64, limit uvec) (at int64, dim int, over bool) {
	if hi <= lo {
		return 0, -1, false
	}
	if d := overDim(p.prefixAt(lo), limit); d >= 0 {
		return lo, d, true
	}
	return overAfter(p.root, uvec{}, lo, hi, limit)
}

// overAfter finds the first key in (lo, hi) whose absolute prefix sum
// (base plus the in-subtree prefix) exceeds limit in some dimension.
func overAfter(n *profNode, base uvec, lo, hi int64, limit uvec) (int64, int, bool) {
	for n != nil {
		if n.key <= lo {
			base = base.add(through(n))
			n = n.right
			continue
		}
		if mayExceed(base, n.left, limit) {
			if k, d, ok := overAfter(n.left, base, lo, hi, limit); ok {
				return k, d, ok
			}
		}
		base = base.add(through(n))
		if n.key >= hi {
			return 0, -1, false // keys only grow to the right
		}
		if d := overDim(base, limit); d >= 0 {
			return n.key, d, true
		}
		n = n.right
	}
	return 0, -1, false
}

// lastOverBefore finds the largest key < hi whose prefix exceeds limit
// in some dimension. Because segments tile time, that key is the start
// boundary of the last over-limit segment below hi.
func lastOverBefore(n *profNode, base uvec, hi int64, limit uvec) (int64, int, bool) {
	if n == nil || !mayExceed(base, n, limit) {
		return 0, -1, false
	}
	if n.key < hi {
		baseR := base.add(through(n))
		if k, d, ok := lastOverBefore(n.right, baseR, hi, limit); ok {
			return k, d, ok
		}
		if d := overDim(baseR, limit); d >= 0 {
			return n.key, d, true
		}
	}
	return lastOverBefore(n.left, base, hi, limit)
}

// fitDimAfter finds the first key > x whose prefix in dimension d is
// back within limit — the boundary where a blocked run in d ends. The
// total delta sum is zero (every reservation closes), so the query
// always succeeds for limit ≥ 0 while any boundary follows x.
func fitDimAfter(n *profNode, base, x int64, d int, limit int64) (int64, bool) {
	for n != nil {
		if n.key <= x {
			base += n.sum[d] - profSumD(n.right, d)
			n = n.right
			continue
		}
		if n.left != nil && base+n.left.minP[d] <= limit {
			if k, ok := fitDimAfter(n.left, base, x, d, limit); ok {
				return k, ok
			}
		}
		base += n.sum[d] - profSumD(n.right, d)
		if base <= limit {
			return n.key, true
		}
		n = n.right
	}
	return 0, false
}

// lastFitDimBefore finds the largest key < x whose prefix in dimension
// d is within limit — the boundary just before a blocked run in d
// begins. Not found means every boundary below x is over in d.
func lastFitDimBefore(n *profNode, base, x int64, d int, limit int64) (int64, bool) {
	if n == nil || base+n.minP[d] > limit {
		return 0, false
	}
	if n.key < x {
		baseR := base + n.sum[d] - profSumD(n.right, d)
		if k, ok := lastFitDimBefore(n.right, baseR, x, d, limit); ok {
			return k, ok
		}
		if baseR <= limit {
			return n.key, true
		}
	}
	return lastFitDimBefore(n.left, base, x, d, limit)
}

// nextKey returns the smallest boundary key > x.
func (p *profile) nextKey(x int64) (int64, bool) {
	var best int64
	found := false
	for n := p.root; n != nil; {
		if n.key > x {
			best, found = n.key, true
			n = n.left
		} else {
			n = n.right
		}
	}
	return best, found
}

// minKey returns the smallest boundary key.
func (p *profile) minKey() (int64, bool) {
	n := p.root
	if n == nil {
		return 0, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, true
}

// walkState threads an in-order range walk without allocating: run is
// the absolute prefix through the last node passed (visited or skipped).
type walkState struct {
	run   uvec
	steps []AvailabilityStep
	prev  int64
	free  ResourceVector
	cap   ResourceVector
}

// walkAvail visits every boundary key in (lo, hi) ascending, cutting an
// availability step at each one. Subtrees entirely ≤ lo contribute only
// their delta sums; traversal stops at the first key ≥ hi.
func walkAvail(n *profNode, st *walkState, lo, hi int64) bool {
	if n == nil {
		return true
	}
	if n.key <= lo {
		st.run = st.run.add(through(n))
		return walkAvail(n.right, st, lo, hi)
	}
	if !walkAvail(n.left, st, lo, hi) {
		return false
	}
	st.run = st.run.add(n.delta())
	if n.key >= hi {
		return false
	}
	st.steps = append(st.steps, AvailabilityStep{Start: st.prev, End: n.key, Free: st.free})
	st.prev = n.key
	st.free = st.cap.Sub(st.run.vec())
	return walkAvail(n.right, st, lo, hi)
}

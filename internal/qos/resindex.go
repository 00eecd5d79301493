package qos

import (
	"fmt"

	"cmpqos/internal/splitmix"
)

// The reservation index: a treap over live reservations keyed by
// (Start, ID), with per-subtree End aggregates. It is the profile's
// companion — the profile answers "where does a vector fit", the index
// answers "which reservation is that" — and makes the remaining O(n)
// scans of the flat-list Timeline logarithmic:
//
//	eviction victim covering instant x    maxEnd descent     O(log² n)
//	any reservation ended by now (Prune)  minEnd descent     O(log n)
//	render horizon (last finite end)      whole walk         O(n)
//	time-ordered iteration                in-order walk      O(n)
//	node still live (LAC.Complete)        key descent        O(log n)
//	reservation by id alone (Release)     whole walk         O(n)
//
// The render horizon is asked once per rendered node (qosctl's chart),
// so it walks rather than keep a third aggregate in every node.
//
// Node pointers are stable across rotations, so the LAC's job→node map
// stays valid through every mutation. A node's key and End never change
// after insert; Vec changes in place (ShrinkVec — Vec feeds no
// aggregate here).

// finiteEndCeiling separates real completions from the open-ended
// opportunistic holds parked at foreverCycles; ends at or beyond it are
// invisible to the render horizon, exactly like the naive scan's filter.
const finiteEndCeiling = foreverCycles / 2

// resNode is one live reservation: 96 bytes, with no stored priority
// (prio hashes the id).
type resNode struct {
	left, right *resNode
	res         Reservation
	maxEnd      int64 // max End over subtree
	minEnd      int64 // min End over subtree
}

// prio is n's treap heap priority, a hash of its reservation id. Ids
// are unique within a timeline and Mix is a bijection, so priorities
// never tie and the index's shape is a function of its reservations
// alone, whatever order they came in.
func (n *resNode) prio() uint64 { return splitmix.Mix(uint64(n.res.ID)) }

// resKeyLess orders reservations by (Start, ID) — admission order within
// a start instant, since IDs are issued monotonically.
func resKeyLess(a, b Reservation) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}

func (n *resNode) pull() {
	n.maxEnd = n.res.End
	n.minEnd = n.res.End
	for _, c := range [2]*resNode{n.left, n.right} {
		if c == nil {
			continue
		}
		if c.maxEnd > n.maxEnd {
			n.maxEnd = c.maxEnd
		}
		if c.minEnd < n.minEnd {
			n.minEnd = c.minEnd
		}
	}
}

// resIndex is the reservation treap.
type resIndex struct {
	root *resNode
}

// insert attaches the fresh node nn into the treap.
func (ix *resIndex) insert(nn *resNode) {
	ix.root = resIns(ix.root, nn)
}

func resIns(n, nn *resNode) *resNode {
	if n == nil {
		nn.pull()
		return nn
	}
	if resKeyLess(nn.res, n.res) {
		n.left = resIns(n.left, nn)
		if n.left.prio() > n.prio() {
			n = resRotRight(n)
		}
	} else {
		n.right = resIns(n.right, nn)
		if n.right.prio() > n.prio() {
			n = resRotLeft(n)
		}
	}
	n.pull()
	return n
}

func resRotRight(n *resNode) *resNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.pull()
	return l
}

func resRotLeft(n *resNode) *resNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.pull()
	return r
}

// remove unlinks the node with key (start, id); the caller already owns
// the node pointer, so nothing is returned.
func (ix *resIndex) remove(key Reservation) {
	ix.root = resDel(ix.root, key)
}

func resDel(n *resNode, key Reservation) *resNode {
	if n == nil {
		panic(fmt.Sprintf("qos: reservation %d is not in the index", key.ID))
	}
	if n.res.ID == key.ID && n.res.Start == key.Start {
		return resMerge(n.left, n.right)
	}
	if resKeyLess(key, n.res) {
		n.left = resDel(n.left, key)
	} else {
		n.right = resDel(n.right, key)
	}
	n.pull()
	return n
}

func resMerge(a, b *resNode) *resNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio() > b.prio() {
		a.right = resMerge(a.right, b)
		a.pull()
		return a
	}
	b.left = resMerge(a, b.left)
	b.pull()
	return b
}

// has reports whether n is in the index: a descent by its (Start, ID)
// key. IDs are unique, so a node that Prune or an eviction dropped, or
// one that was never inserted, is not found.
func (ix *resIndex) has(n *resNode) bool {
	for c := ix.root; c != nil; {
		if c == n {
			return true
		}
		if resKeyLess(n.res, c.res) {
			c = c.left
		} else {
			c = c.right
		}
	}
	return false
}

// resFind returns the node holding reservation id, or nil: a walk of the
// whole index, for callers that know the id alone.
func resFind(n *resNode, id int) *resNode {
	for n != nil {
		if n.res.ID == id {
			return n
		}
		if f := resFind(n.left, id); f != nil {
			return f
		}
		n = n.right
	}
	return nil
}

// victim returns the reservation covering instant at (Start ≤ at < End)
// with the largest (Start, ID) — the SetCapacity eviction order: latest
// start, then largest ID. maxEnd prunes subtrees that ended by at.
func (ix *resIndex) victim(at int64) *resNode {
	return resVictim(ix.root, at)
}

func resVictim(n *resNode, at int64) *resNode {
	if n == nil || n.maxEnd <= at {
		return nil
	}
	if n.res.Start <= at {
		if v := resVictim(n.right, at); v != nil {
			return v
		}
		if n.res.End > at {
			return n
		}
	}
	return resVictim(n.left, at)
}

// endedBy returns any reservation with End ≤ now, or nil — the Prune
// work loop peels these off one at a time.
func (ix *resIndex) endedBy(now int64) *resNode {
	n := ix.root
	for n != nil {
		if n.minEnd > now {
			return nil
		}
		if n.left != nil && n.left.minEnd <= now {
			n = n.left
			continue
		}
		if n.res.End <= now {
			return n
		}
		n = n.right
	}
	return nil
}

// resMaxFiniteEnd returns the largest End below finiteEndCeiling in n's
// subtree that exceeds h, or h: an in-order walk of the subtree.
func resMaxFiniteEnd(n *resNode, h int64) int64 {
	for ; n != nil; n = n.right {
		h = resMaxFiniteEnd(n.left, h)
		if e := n.res.End; e > h && e < finiteEndCeiling {
			h = e
		}
	}
	return h
}

// appendAll appends every reservation in (Start, ID) order.
func resAppend(n *resNode, out []Reservation) []Reservation {
	if n == nil {
		return out
	}
	out = resAppend(n.left, out)
	out = append(out, n.res)
	return resAppend(n.right, out)
}

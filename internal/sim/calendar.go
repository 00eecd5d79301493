// calendar is the fleet's event calendar (DESIGN §11.4): the sleeping
// nodes, filed under the absolute cycle of their next wake. Nodes
// sharing a horizon share one bucket — a circular intrusive list
// threaded through per-node links — and the buckets, one per distinct
// horizon, are kept sorted latest first, so the earliest is
// the last entry and leaves whole. A horizon's bucket is found by binary
// search over the open buckets; joining it and leaving it are O(1) link
// moves, and only opening or closing a bucket shifts the sorted order.
// Nothing orders the nodes inside a bucket: the fleet sorts each
// round's nodes by id anyway. All storage is sized by the node count at
// construction, so a warmed calendar allocates nothing.
package sim

import "slices"

type calendar struct {
	// next/prev link the circular lists: entries [0, n) are nodes, entry
	// n+b is bucket b's sentinel. A node outside the calendar has next -1.
	next, prev []int32
	hz         []int64 // bucket id → its horizon
	order      []int32 // open bucket ids by horizon, latest first
	free       []int32 // closed bucket ids
}

func newCalendar(n int) *calendar {
	c := &calendar{
		next:  make([]int32, 2*n),
		prev:  make([]int32, 2*n),
		hz:    make([]int64, n),
		order: make([]int32, 0, n),
		free:  make([]int32, n),
	}
	for i := 0; i < n; i++ {
		c.next[i] = -1
		c.free[i] = int32(i)
	}
	return c
}

// contains reports whether node id sleeps in the calendar.
func (c *calendar) contains(id int) bool { return c.next[id] >= 0 }

// find returns the position in order of the first bucket whose horizon
// is at or before h, and whether its horizon is h.
func (c *calendar) find(h int64) (int, bool) {
	lo, hi := 0, len(c.order)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.hz[c.order[mid]] > h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c.order) && c.hz[c.order[lo]] == h
}

// insert files node id, which must not be in the calendar, under
// horizon h.
func (c *calendar) insert(id int, h int64) {
	i, found := c.find(h)
	var b int32
	if found {
		b = c.order[i]
	} else {
		b = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.hz[b] = h
		s := c.sentinel(b)
		c.next[s], c.prev[s] = s, s
		c.order = slices.Insert(c.order, i, b)
	}
	s, n := c.sentinel(b), int32(id)
	c.next[n], c.prev[n] = c.next[s], s
	c.prev[c.next[s]] = n
	c.next[s] = n
}

// remove takes node id, which must be in the calendar, out of it,
// closing its bucket if it was the last node there.
func (c *calendar) remove(id int) {
	p, nx := c.prev[id], c.next[id]
	c.next[p], c.prev[nx] = nx, p
	c.next[id] = -1
	if p == nx { // only the sentinel is left
		b := p - int32(len(c.hz))
		i, _ := c.find(c.hz[b])
		c.order = slices.Delete(c.order, i, i+1)
		c.free = append(c.free, b)
	}
}

// popDue appends every node whose horizon is at or before now to dst,
// in no particular order, and takes them out of the calendar.
func (c *calendar) popDue(now int64, dst []int32) []int32 {
	for len(c.order) > 0 {
		b := c.order[len(c.order)-1]
		if c.hz[b] > now {
			break
		}
		s := c.sentinel(b)
		for n := c.next[s]; n != s; {
			nx := c.next[n]
			c.next[n] = -1
			dst = append(dst, n)
			n = nx
		}
		c.order = c.order[:len(c.order)-1]
		c.free = append(c.free, b)
	}
	return dst
}

func (c *calendar) sentinel(b int32) int32 { return int32(len(c.hz)) + b }

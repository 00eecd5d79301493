package cache

// LRU is a plain (unpartitioned) set-associative LRU cache: the shortest
// driver of baseCache, for the tests of what every model shares.
type LRU struct {
	*baseCache
}

// NewLRU builds a plain LRU cache with the given geometry.
func NewLRU(cfg Config) *LRU {
	return &LRU{newBase(cfg)}
}

// Access performs one read access.
func (c *LRU) Access(owner int, addr Addr) Result {
	return c.access(owner, addr, false)
}

// Write performs one write access (write-allocate, write-back).
func (c *LRU) Write(owner int, addr Addr) Result {
	return c.access(owner, addr, true)
}

func (c *LRU) access(owner int, addr Addr, write bool) Result {
	set, tag := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		if write {
			c.markDirty(set, w)
		}
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.freeWay(set)
	if w < 0 {
		w = c.lruWay(set, nil)
	}
	vo, ev, wb := c.install(set, w, tag, owner)
	if write {
		c.markDirty(set, w)
	}
	return Result{Set: set, VictimOwner: vo, Evicted: ev, WriteBack: wb}
}

var _ Interface = (*LRU)(nil)

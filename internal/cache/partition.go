package cache

import "fmt"

// Partitioned is the per-set way-partitioning cache of paper §4.1 (after
// Iyer and Nesbit et al., a finer-grain version of Suh's modified LRU),
// extended with the paper's QoS-aware victim selection:
//
//   - Each owner (core) has a target allocation counter: the number of
//     ways it should converge to in every set.
//   - Each set tracks per-owner occupancy. On a miss by owner i in set s:
//     if occupancy[s][i] < target[i], the victim comes from an
//     over-allocated owner; otherwise from owner i's own blocks.
//   - QoS awareness: when more than one owner is over-allocated, an
//     over-allocated *reserved* (Strict/Elastic) owner is victimized
//     first, so reserved cores converge to their (possibly just shrunk)
//     targets quickly and stolen capacity flows to Opportunistic jobs.
//     Otherwise the LRU block among Opportunistic owners' blocks is
//     chosen.
//
// Targets may change at run time (admission, release, resource stealing);
// contents converge to the new targets through victim selection, exactly
// as the hardware would.
type Partitioned struct {
	*baseCache
	target []int16 // target ways per owner
	class  []Class // QoS class per owner
}

// NewPartitioned builds a per-set way-partitioned cache. Initial targets
// are zero (no owner may grow until given a target); classes default to
// ClassNone.
func NewPartitioned(cfg Config) *Partitioned {
	return &Partitioned{
		baseCache: newBase(cfg),
		target:    make([]int16, cfg.Owners),
		class:     make([]Class, cfg.Owners),
	}
}

// SetTarget sets owner's target way count. Panics if ways is negative or
// exceeds associativity, which indicates a scheduler bug. The sum of
// targets across owners may legally be below associativity (unallocated
// ways) but must not exceed it.
func (c *Partitioned) SetTarget(owner, ways int) {
	if ways < 0 || ways > c.cfg.Ways {
		panic(fmt.Sprintf("cache: target %d out of range [0,%d]", ways, c.cfg.Ways))
	}
	c.target[owner] = int16(ways)
	if s := c.targetSum(); s > c.cfg.Ways {
		panic(fmt.Sprintf("cache: target sum %d exceeds associativity %d", s, c.cfg.Ways))
	}
}

func (c *Partitioned) targetSum() int {
	s := 0
	for _, t := range c.target {
		s += int(t)
	}
	return s
}

// UnallocatedWays returns associativity minus the sum of targets.
func (c *Partitioned) UnallocatedWays() int { return c.cfg.Ways - c.targetSum() }

// SetClass sets the QoS class of the job on owner's core, which steers
// victim selection priority.
func (c *Partitioned) SetClass(owner int, cl Class) { c.class[owner] = cl }

// Access performs one read access by owner.
func (c *Partitioned) Access(owner int, addr Addr) Result {
	return c.access(owner, addr, false)
}

// Write performs one write access by owner (write-allocate, write-back).
func (c *Partitioned) Write(owner int, addr Addr) Result {
	return c.access(owner, addr, true)
}

func (c *Partitioned) access(owner int, addr Addr, write bool) Result {
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
	w := c.victim(set, owner)
	vo, ev, wb := c.install(set, w, tag, owner)
	if write {
		c.markDirty(set, w)
	}
	return Result{Set: set, VictimOwner: vo, Evicted: ev, WriteBack: wb}
}

// victim implements the QoS-aware per-set victim selection. Reserved
// (Strict/Elastic) owners are confined to their target allocation — they
// may not scavenge unallocated ways, since strict partitioning requires a
// job's performance to reflect its allocation and nothing else — while
// Opportunistic owners may take any free (unallocated) way.
func (c *Partitioned) victim(set, owner int) int {
	occ := c.occupancy[set]
	under := occ[owner] < c.target[owner]
	oppo := c.class[owner] == ClassOpportunistic
	if under || oppo {
		// Invalid lines displace nobody; take them when entitled to grow.
		if w := c.freeWay(set); w >= 0 {
			return w
		}
	}
	if under {
		// The requester is under target: reclaim from an over-allocated
		// owner. Reserved-class over-allocated owners first (paper
		// §4.1, so shrunk reserved partitions converge fast and stolen
		// capacity flows to Opportunistic jobs), then the LRU block
		// among Opportunistic owners, then any over-allocated owner —
		// one exists: the set is full and SetTarget keeps the targets
		// within the ways, so the requester's shortfall is someone's
		// excess.
		if w := c.lruOverReserved(set); w >= 0 {
			return w
		}
		if w := c.lruOtherOpportunistic(set, owner); w >= 0 {
			return w
		}
		if w := c.lruOverAllocated(set); w >= 0 {
			return w
		}
		panic(fmt.Sprintf("cache: owner %d under target in full set %d with no owner over its target", owner, set))
	}
	// An Opportunistic requester reclaims over-allocated reserved
	// owners' blocks before recycling its own: that is how capacity
	// stolen from Elastic jobs (their targets shrank, leaving them
	// over-allocated) actually flows to Opportunistic jobs (§4.1).
	if oppo {
		if w := c.lruOverReserved(set); w >= 0 {
			return w
		}
	}
	// The requester is at or above target: replace within its own blocks.
	if w := c.lruOwned(set, owner); w >= 0 {
		return w
	}
	// The requester owns nothing in this set and has no target headroom
	// (e.g. an Opportunistic core with target 0 sharing the leftover
	// pool). Take the LRU block among Opportunistic owners if any,
	// otherwise over-allocated owners, otherwise global LRU.
	if w := c.lruAnyOpportunistic(set); w >= 0 {
		return w
	}
	if w := c.lruOverAllocated(set); w >= 0 {
		return w
	}
	// Final resorts: an invalid way if the set still has one (only
	// target-zero owners reach here — e.g. shadow-array bookkeeping for
	// a core with no tracked job), else global LRU.
	if w := c.freeWay(set); w >= 0 {
		return w
	}
	return c.lruWay(set, nil)
}

// The specialized LRU scans below are the victim policy's hot loops:
// each is the lruWay generic with its predicate inlined, because the
// indirect keep-function call per candidate line dominated the miss
// path in profiles (every predicate reads only the line's owner).

// lruOwned returns the LRU way among owner's own valid blocks, or -1.
func (c *Partitioned) lruOwned(set, owner int) int {
	lines := c.sets[set]
	o8 := int8(owner)
	best, bestStamp := -1, uint64(0)
	for w := range lines {
		ln := &lines[w]
		if !ln.valid || ln.owner != o8 {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	return best
}

// lruOverReserved returns the LRU way among blocks of over-allocated
// reserved-class owners, or -1.
func (c *Partitioned) lruOverReserved(set int) int {
	lines := c.sets[set]
	occ := c.occupancy[set]
	best, bestStamp := -1, uint64(0)
	for w := range lines {
		ln := &lines[w]
		if !ln.valid || occ[ln.owner] <= c.target[ln.owner] || c.class[ln.owner] != ClassReserved {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	return best
}

// lruOtherOpportunistic returns the LRU way among Opportunistic-class
// owners other than the requester, or -1.
func (c *Partitioned) lruOtherOpportunistic(set, owner int) int {
	lines := c.sets[set]
	o8 := int8(owner)
	best, bestStamp := -1, uint64(0)
	for w := range lines {
		ln := &lines[w]
		if !ln.valid || ln.owner == o8 || c.class[ln.owner] != ClassOpportunistic {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	return best
}

// lruAnyOpportunistic returns the LRU way among Opportunistic-class
// owners' blocks, or -1.
func (c *Partitioned) lruAnyOpportunistic(set int) int {
	lines := c.sets[set]
	best, bestStamp := -1, uint64(0)
	for w := range lines {
		ln := &lines[w]
		if !ln.valid || c.class[ln.owner] != ClassOpportunistic {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	return best
}

// lruOverAllocated returns the LRU way among blocks of any over-allocated
// owner, or -1.
func (c *Partitioned) lruOverAllocated(set int) int {
	lines := c.sets[set]
	occ := c.occupancy[set]
	best, bestStamp := -1, uint64(0)
	for w := range lines {
		ln := &lines[w]
		if !ln.valid || occ[ln.owner] <= c.target[ln.owner] {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best, bestStamp = w, ln.stamp
		}
	}
	return best
}

var _ Interface = (*Partitioned)(nil)

// Global is the coarse-grain "global approach" partitioning scheme the
// paper describes (after Suh et al.) and rejects: a single pair of global
// counters per core — blocks currently allocated and the target block
// count — with victim selection from any core whose *global* count
// exceeds its target. Block placement across sets is therefore uneven and
// varies run to run with co-runner behaviour, which is exactly the
// variability the ablation experiment measures.
type Global struct {
	*baseCache
	targetBlocks []int64 // global target in blocks per owner
}

// NewGlobal builds a global-counter partitioned cache.
func NewGlobal(cfg Config) *Global {
	return &Global{
		baseCache:    newBase(cfg),
		targetBlocks: make([]int64, cfg.Owners),
	}
}

// SetTargetWays sets owner's target expressed in ways; internally the
// global scheme tracks blocks (ways × sets).
func (c *Global) SetTargetWays(owner, ways int) {
	if ways < 0 || ways > c.cfg.Ways {
		panic(fmt.Sprintf("cache: target %d out of range [0,%d]", ways, c.cfg.Ways))
	}
	c.targetBlocks[owner] = int64(ways) * int64(c.Sets())
}

// Access performs one access by owner.
func (c *Global) Access(owner int, addr Addr) Result {
	set, tag := c.index(addr)
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.freeWay(set)
	if w < 0 {
		// Victim from a globally over-allocated owner; LRU within the
		// set among those owners' blocks. Fall back to own blocks, then
		// global LRU.
		w = c.lruWay(set, func(ln line) bool {
			return c.globalOcc[ln.owner] > c.targetBlocks[ln.owner]
		})
		if w < 0 {
			w = c.lruWay(set, func(ln line) bool { return int(ln.owner) == owner })
		}
		if w < 0 {
			w = c.lruWay(set, nil)
		}
	}
	vo, ev, wb := c.install(set, w, tag, owner)
	return Result{Set: set, VictimOwner: vo, Evicted: ev, WriteBack: wb}
}

var _ Interface = (*Global)(nil)

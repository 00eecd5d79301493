// Package cache implements the shared-L2 cache models from the paper: a
// set-associative cache with true LRU, the per-set way-partitioning scheme
// with QoS-aware victim selection (paper §4.1), the global modified-LRU
// partitioning scheme of Suh et al. (the alternative the paper rejects for
// its run-to-run variability), and the duplicate (shadow) tag arrays with
// set sampling that support resource stealing (paper §4.3).
//
// All caches in this package are tag-only models: they track which block
// addresses are resident and who owns them, not data contents. That is all
// the QoS framework observes. Owners are small integers (core IDs).
package cache

import (
	"fmt"
	"math/bits"
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Class describes the QoS standing of the job running on a core, as far
// as the cache victim-selection hardware cares: blocks belonging to
// reserved-mode jobs (Strict or Elastic) are prioritized for reclamation
// when their core is over target, because the partitioning hardware wants
// those cores to converge to their targets quickly (paper §4.1).
type Class uint8

const (
	// ClassNone marks a core with no job (its blocks are fair game).
	ClassNone Class = iota
	// ClassReserved marks a core running a Strict or Elastic(X) job.
	ClassReserved
	// ClassOpportunistic marks a core running Opportunistic jobs.
	ClassOpportunistic
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassReserved:
		return "reserved"
	case ClassOpportunistic:
		return "opportunistic"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Config describes cache geometry.
type Config struct {
	SizeBytes int   // total capacity in bytes
	Ways      int   // associativity
	BlockSize int   // line size in bytes
	Owners    int   // number of cores that may own blocks
	HitCycles int64 // access latency, cycles (bookkeeping only)
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.BlockSize) }

// Validate checks the geometry for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockSize <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.Owners <= 0 {
		return fmt.Errorf("cache: need at least one owner")
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache: block size %d is not a power of two", c.BlockSize)
	}
	if c.SizeBytes%(c.Ways*c.BlockSize) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*block", c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// PaperL2 returns the paper's shared L2 geometry: 2 MB, 16-way, 64 B
// blocks (2048 sets), 10-cycle access, four owning cores.
func PaperL2() Config {
	return Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 4, HitCycles: 10}
}

// Result reports the outcome of one access.
type Result struct {
	Hit         bool
	Set         int  // set index the access mapped to
	VictimOwner int  // owner whose block was evicted on a miss; -1 if none
	Evicted     bool // whether a valid block was displaced
	// WriteBack reports that the displaced block was dirty: a write-back
	// transfer to the next level (the paper's caches are write-back).
	WriteBack bool
}

// Interface is the behaviour common to all cache models in this package.
type Interface interface {
	// Access performs a (read or write — the tag model does not care)
	// access by owner to addr and returns the outcome.
	Access(owner int, addr Addr) Result
	// ResetStats zeroes the per-owner counters without touching contents.
	ResetStats()
}

// line is one cache line's bookkeeping state. The tag itself lives in
// the dense per-set tag array (baseCache.tags) so the lookup scan —
// the hottest loop in the trace engine — touches two cache lines per
// 16-way set instead of six.
type line struct {
	stamp uint64 // LRU stamp; larger = more recently used
	owner int8
	valid bool
	dirty bool
}

// baseCache holds the storage shared by every cache model.
type baseCache struct {
	cfg       Config
	sets      [][]line
	tags      [][]uint64 // tags[set][way], parallel to sets
	clock     uint64     // global LRU stamp source
	setShift  uint
	tagShift  uint // precomputed setShift + log2(sets); see index
	setMask   uint64
	ownerAcc  []int64
	ownerMiss []int64
	occupancy [][]int16 // occupancy[set][owner]: valid blocks owned per set
	globalOcc []int64   // blocks owned per owner across all sets
	freeInSet []int16   // invalid lines per set
	freeHint  []int16   // per set: every way below the hint is valid
}

func newBase(cfg Config) *baseCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	b := &baseCache{
		cfg:       cfg,
		sets:      make([][]line, sets),
		tags:      make([][]uint64, sets),
		setShift:  uint(bits.TrailingZeros(uint(cfg.BlockSize))),
		tagShift:  uint(bits.TrailingZeros(uint(cfg.BlockSize))) + uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ownerAcc:  make([]int64, cfg.Owners),
		ownerMiss: make([]int64, cfg.Owners),
		occupancy: make([][]int16, sets),
		globalOcc: make([]int64, cfg.Owners),
		freeInSet: make([]int16, sets),
		freeHint:  make([]int16, sets),
	}
	lines := make([]line, sets*cfg.Ways)
	tags := make([]uint64, sets*cfg.Ways)
	occ := make([]int16, sets*cfg.Owners)
	for s := 0; s < sets; s++ {
		b.sets[s] = lines[s*cfg.Ways : (s+1)*cfg.Ways : (s+1)*cfg.Ways]
		b.tags[s] = tags[s*cfg.Ways : (s+1)*cfg.Ways : (s+1)*cfg.Ways]
		b.occupancy[s] = occ[s*cfg.Owners : (s+1)*cfg.Owners : (s+1)*cfg.Owners]
		b.freeInSet[s] = int16(cfg.Ways)
	}
	return b
}

// index splits an address into set index and tag.
func (b *baseCache) index(addr Addr) (set int, tag uint64) {
	blk := uint64(addr) >> b.setShift
	return int(blk & b.setMask), uint64(addr) >> b.tagShift
}

// lookup finds the way holding (set, tag), or -1.
func (b *baseCache) lookup(set int, tag uint64) int {
	lines := b.sets[set]
	for w, t := range b.tags[set] {
		if t == tag && lines[w].valid {
			return w
		}
	}
	return -1
}

// touch refreshes the LRU stamp of a way.
func (b *baseCache) touch(set, way int) {
	b.clock++
	b.sets[set][way].stamp = b.clock
}

// freeWay returns the lowest-index invalid way in the set, or -1. The
// freeInSet counter answers the common full-set case in O(1); otherwise
// the scan starts at the set's free hint, which is a proven lower bound
// on the first invalid way (everything below it is valid), so filling a
// set is amortized O(1) instead of O(ways²).
func (b *baseCache) freeWay(set int) int {
	if b.freeInSet[set] == 0 {
		return -1
	}
	lines := b.sets[set]
	for w := int(b.freeHint[set]); w < len(lines); w++ {
		if !lines[w].valid {
			b.freeHint[set] = int16(w)
			return w
		}
	}
	panic(fmt.Sprintf("cache: set %d counts %d invalid lines above way %d and holds none", set, b.freeInSet[set], b.freeHint[set]))
}

// lruWay returns the least-recently-used way among those for which keep
// returns true, or -1 when no way qualifies. A nil keep considers every
// way: every caller asks once freeWay found none free, so every line of
// the set is valid.
func (b *baseCache) lruWay(set int, keep func(line) bool) int {
	best := -1
	var bestStamp uint64
	for w, ln := range b.sets[set] {
		if keep != nil && !keep(ln) {
			continue
		}
		if best == -1 || ln.stamp < bestStamp {
			best = w
			bestStamp = ln.stamp
		}
	}
	return best
}

// install places (tag, owner) into way, updating occupancy bookkeeping,
// and returns the previous owner (or -1), whether a valid block was
// displaced, and whether the displaced block was dirty (write-back).
func (b *baseCache) install(set, way int, tag uint64, owner int) (victimOwner int, evicted, writeBack bool) {
	ln := &b.sets[set][way]
	victimOwner = -1
	if ln.valid {
		victimOwner = int(ln.owner)
		evicted = true
		writeBack = ln.dirty
		b.occupancy[set][ln.owner]--
		b.globalOcc[ln.owner]--
	} else {
		b.freeInSet[set]--
		if int(b.freeHint[set]) == way {
			b.freeHint[set]++
		}
	}
	b.tags[set][way] = tag
	ln.owner = int8(owner)
	ln.valid = true
	ln.dirty = false
	b.occupancy[set][owner]++
	b.globalOcc[owner]++
	b.clock++
	ln.stamp = b.clock
	return victimOwner, evicted, writeBack
}

// markDirty sets a resident way's dirty bit (a write hit or a write
// fill under write-allocate).
func (b *baseCache) markDirty(set, way int) { b.sets[set][way].dirty = true }

// record updates per-owner counters.
func (b *baseCache) record(owner int, miss bool) {
	b.ownerAcc[owner]++
	if miss {
		b.ownerMiss[owner]++
	}
}

// Stats returns cumulative accesses and misses for owner.
func (b *baseCache) Stats(owner int) (accesses, misses int64) {
	return b.ownerAcc[owner], b.ownerMiss[owner]
}

// ResetOwnerStats zeroes one owner's access/miss counters; contents and
// the counters of other owners are untouched.
func (b *baseCache) ResetOwnerStats(owner int) {
	b.ownerAcc[owner] = 0
	b.ownerMiss[owner] = 0
}

// ResetStats zeroes all access/miss counters; contents are untouched.
func (b *baseCache) ResetStats() {
	for i := range b.ownerAcc {
		b.ownerAcc[i] = 0
		b.ownerMiss[i] = 0
	}
}

// MissRatio returns misses/accesses for owner (0 when idle).
func (b *baseCache) MissRatio(owner int) float64 {
	if b.ownerAcc[owner] == 0 {
		return 0
	}
	return float64(b.ownerMiss[owner]) / float64(b.ownerAcc[owner])
}

// Sets returns the number of sets.
func (b *baseCache) Sets() int { return len(b.sets) }

package cache

import "fmt"

// ShadowTags is the duplicate tag array of paper §4.3 with set sampling:
// a tag-only replica of the shared cache covering every Nth set, running
// the same per-set partitioning policy but with its *own* target
// allocations — frozen at the pre-stealing allocation — so that it tracks
// what blocks the cache would hold had resource stealing not been applied.
// The full L2 access stream is made visible to both tag arrays; only
// their miss counts differ. The stealing controller compares cumulative
// misses in the main tags against cumulative misses here, both restricted
// to the sampled sets so the comparison is apples-to-apples.
type ShadowTags struct {
	shadow   *Partitioned
	every    int
	mainMiss []int64 // main-tag misses on sampled sets, per owner
}

// NewShadowTags builds a shadow tag array for a main cache with geometry
// cfg, sampling every `every`-th set (the paper samples every 8th set,
// covering 1/8 of the sets). every must be a power of two that divides
// the set count.
func NewShadowTags(cfg Config, every int) *ShadowTags {
	if every <= 0 || every&(every-1) != 0 {
		panic(fmt.Sprintf("cache: sampling interval %d must be a positive power of two", every))
	}
	sets := cfg.Sets()
	if sets%every != 0 || sets/every == 0 {
		panic(fmt.Sprintf("cache: sampling interval %d does not divide set count %d", every, sets))
	}
	shadowCfg := cfg
	shadowCfg.SizeBytes = cfg.SizeBytes / every
	st := &ShadowTags{
		shadow:   NewPartitioned(shadowCfg),
		every:    every,
		mainMiss: make([]int64, cfg.Owners),
	}
	return st
}

// SetTarget fixes owner's target allocation inside the shadow array (the
// original, pre-stealing allocation).
func (st *ShadowTags) SetTarget(owner, ways int) { st.shadow.SetTarget(owner, ways) }

// SetClass mirrors the QoS class into the shadow array's victim policy.
func (st *ShadowTags) SetClass(owner int, cl Class) { st.shadow.SetClass(owner, cl) }

// UnallocatedWays returns associativity minus the shadow's target sum.
func (st *ShadowTags) UnallocatedWays() int { return st.shadow.UnallocatedWays() }

// Sampled reports whether a main-cache set index is covered by the
// shadow array.
func (st *ShadowTags) Sampled(mainSet int) bool { return mainSet%st.every == 0 }

// Observe feeds one main-cache access into the shadow array. The caller
// provides the main-cache Result so the shadow can keep a parallel count
// of main-tag misses on sampled sets. Accesses to unsampled sets are
// ignored, exactly as the sampling hardware would.
func (st *ShadowTags) Observe(owner int, addr Addr, main Result) {
	if !st.Sampled(main.Set) {
		return
	}
	if !main.Hit {
		st.mainMiss[owner]++
	}
	// The tag is derived from the *main* geometry: the shadow set index
	// is mainSet/every, and within a shadow set every resident block
	// comes from the same main set, so the main tag uniquely identifies
	// a block there.
	tag := uint64(addr) >> st.shadow.setShift
	tag >>= uint(trailingZeros(len(st.shadow.sets) * st.every))
	st.shadow.accessSetTag(owner, main.Set/st.every, tag)
}

// trailingZeros is a tiny helper for power-of-two ints.
func trailingZeros(n int) int {
	z := 0
	for n > 1 {
		n >>= 1
		z++
	}
	return z
}

// MainMisses returns the cumulative main-tag misses by owner on sampled
// sets since the owner's last ResetOwner.
func (st *ShadowTags) MainMisses(owner int) int64 { return st.mainMiss[owner] }

// ShadowMisses returns the cumulative shadow-tag misses by owner since
// the owner's last ResetOwner — the misses the job would have had
// without stealing.
func (st *ShadowTags) ShadowMisses(owner int) int64 {
	_, m := st.shadow.Stats(owner)
	return m
}

// ResetOwner zeroes one owner's miss streams without disturbing other
// owners' counters or the shadow contents; used when a new Elastic job
// is installed on a core while another core's job is still tracked.
func (st *ShadowTags) ResetOwner(owner int) {
	st.mainMiss[owner] = 0
	st.shadow.ResetOwnerStats(owner)
}

// accessSetTag is the low-level access path used by ShadowTags, which
// must address the replica by (set, tag) computed from the main cache's
// geometry rather than re-deriving them from the address.
func (c *Partitioned) accessSetTag(owner, set int, tag uint64) Result {
	if w := c.lookup(set, tag); w >= 0 {
		c.touch(set, w)
		c.record(owner, false)
		return Result{Hit: true, Set: set, VictimOwner: -1}
	}
	c.record(owner, true)
	w := c.victim(set, owner)
	vo, ev, wb := c.install(set, w, tag, owner)
	return Result{Set: set, VictimOwner: vo, Evicted: ev, WriteBack: wb}
}

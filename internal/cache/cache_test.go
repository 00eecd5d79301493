package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tiny returns a small cache geometry convenient for tests: 8 sets,
// 4 ways, 64 B blocks, 4 owners.
func tiny() Config {
	return Config{SizeBytes: 8 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 4, HitCycles: 10}
}

// blockAddr builds an address mapping to the given set with the given tag
// under geometry cfg.
func blockAddr(cfg Config, set int, tag uint64) Addr {
	sets := uint64(cfg.Sets())
	blk := tag*sets + uint64(set)
	return Addr(blk * uint64(cfg.BlockSize))
}

func TestConfigValidate(t *testing.T) {
	good := tiny()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{SizeBytes: 0, Ways: 4, BlockSize: 64, Owners: 1},
		{SizeBytes: 1024, Ways: 0, BlockSize: 64, Owners: 1},
		{SizeBytes: 1024, Ways: 4, BlockSize: 63, Owners: 1},       // non-pow2 block
		{SizeBytes: 4 * 3 * 64, Ways: 4, BlockSize: 64, Owners: 1}, // 3 sets, non-pow2
		{SizeBytes: 1000, Ways: 4, BlockSize: 64, Owners: 1},       // not divisible
		{SizeBytes: 1024, Ways: 4, BlockSize: 64, Owners: 0},       // no owners
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestPaperGeometries(t *testing.T) {
	l2 := PaperL2()
	if err := l2.Validate(); err != nil {
		t.Fatalf("paper L2 invalid: %v", err)
	}
	if l2.Sets() != 2048 {
		t.Errorf("paper L2 sets = %d, want 2048", l2.Sets())
	}
}

func TestLRUHitMiss(t *testing.T) {
	c := NewLRU(tiny())
	a := blockAddr(c.cfg, 3, 7)
	if r := c.Access(0, a); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(0, a); !r.Hit {
		t.Fatal("second access should hit")
	}
	if r := c.Access(0, a+1); !r.Hit {
		t.Fatal("same-block access should hit")
	}
	acc, miss := c.Stats(0)
	if acc != 3 || miss != 1 {
		t.Errorf("stats = (%d,%d), want (3,1)", acc, miss)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := tiny()
	c := NewLRU(cfg)
	// Fill set 0 with 4 distinct tags, then access a 5th; the victim
	// must be the least recently used (tag 0).
	for tag := uint64(0); tag < 4; tag++ {
		c.Access(0, blockAddr(cfg, 0, tag))
	}
	// Touch tags 1..3 to make tag 0 LRU.
	for tag := uint64(1); tag < 4; tag++ {
		if r := c.Access(0, blockAddr(cfg, 0, tag)); !r.Hit {
			t.Fatalf("tag %d should hit", tag)
		}
	}
	if r := c.Access(0, blockAddr(cfg, 0, 99)); r.Hit || !r.Evicted {
		t.Fatal("5th distinct tag should miss and evict")
	}
	if r := c.Access(0, blockAddr(cfg, 0, 0)); r.Hit {
		t.Fatal("tag 0 should have been the LRU victim")
	}
	// tags 1..3 and 99 should still be resident (after the tag-0 refill
	// evicted the then-LRU tag 1).
	if r := c.Access(0, blockAddr(cfg, 0, 99)); !r.Hit {
		t.Error("tag 99 unexpectedly evicted")
	}
}

func TestPartitionedTargetEnforced(t *testing.T) {
	cfg := tiny()
	c := NewPartitioned(cfg)
	c.SetTarget(0, 2)
	c.SetClass(0, ClassReserved)
	// A reserved owner streaming through many blocks must never occupy
	// more than its 2-way target in any set, even though the other two
	// ways are unallocated.
	for i := 0; i < 4096; i++ {
		c.Access(0, Addr(i*cfg.BlockSize))
	}
	for s := 0; s < cfg.Sets(); s++ {
		if got := int(c.occupancy[s][0]); got > 2 {
			t.Fatalf("set %d: reserved owner occupies %d ways, target 2", s, got)
		}
	}
	if c.UnallocatedWays() != 2 {
		t.Errorf("unallocated ways = %d, want 2", c.UnallocatedWays())
	}
}

func TestPartitionedOpportunisticScavenges(t *testing.T) {
	cfg := tiny()
	c := NewPartitioned(cfg)
	c.SetTarget(0, 0)
	c.SetClass(0, ClassOpportunistic)
	// An opportunistic owner with zero target may fill unallocated ways.
	for i := 0; i < 4096; i++ {
		c.Access(0, Addr(i*cfg.BlockSize))
	}
	full := 0
	for s := 0; s < cfg.Sets(); s++ {
		if int(c.occupancy[s][0]) == cfg.Ways {
			full++
		}
	}
	if full != cfg.Sets() {
		t.Errorf("opportunistic owner filled %d/%d sets completely", full, cfg.Sets())
	}
}

func TestPartitionedConvergenceAfterRepartition(t *testing.T) {
	cfg := tiny()
	c := NewPartitioned(cfg)
	c.SetTarget(0, 3)
	c.SetTarget(1, 1)
	c.SetClass(0, ClassReserved)
	c.SetClass(1, ClassReserved)
	rng := rand.New(rand.NewSource(7))
	work := func(n int) {
		for i := 0; i < n; i++ {
			owner := i % 2
			c.Access(owner, Addr(rng.Intn(1024)*cfg.BlockSize))
		}
	}
	work(20000)
	// Now shrink owner 0 to 1 way and grow owner 1 to 3; contents must
	// converge via victim selection.
	c.SetTarget(0, 1)
	c.SetTarget(1, 3)
	work(20000)
	for s := 0; s < cfg.Sets(); s++ {
		if got := int(c.occupancy[s][0]); got > 1 {
			t.Fatalf("set %d: owner 0 still holds %d ways after shrink to 1", s, got)
		}
	}
}

func TestPartitionedReservedVictimPriority(t *testing.T) {
	cfg := tiny()
	c := NewPartitioned(cfg)
	// Owner 0: reserved, over-allocated (target will shrink).
	// Owner 1: opportunistic with blocks present.
	// Owner 2: reserved, under target, about to miss.
	c.SetTarget(0, 2)
	c.SetTarget(2, 1)
	c.SetClass(0, ClassReserved)
	c.SetClass(1, ClassOpportunistic)
	c.SetClass(2, ClassReserved)
	// Fill set 0: two blocks for owner 0, then opportunistic owner 1
	// takes the two unallocated ways.
	c.Access(0, blockAddr(cfg, 0, 1))
	c.Access(0, blockAddr(cfg, 0, 2))
	c.Access(1, blockAddr(cfg, 0, 3))
	c.Access(1, blockAddr(cfg, 0, 4))
	// Shrink owner 0 to 1 way: it is now over-allocated in set 0.
	c.SetTarget(0, 1)
	// Owner 2 misses in set 0. The victim must come from over-allocated
	// *reserved* owner 0, not from the opportunistic blocks.
	r := c.Access(2, blockAddr(cfg, 0, 9))
	if r.Hit {
		t.Fatal("expected a miss")
	}
	if r.VictimOwner != 0 {
		t.Fatalf("victim owner = %d, want 0 (over-allocated reserved first)", r.VictimOwner)
	}
}

func TestPartitionedOpportunisticVictimWhenNoOverAllocated(t *testing.T) {
	cfg := tiny()
	c := NewPartitioned(cfg)
	c.SetTarget(0, 1)
	c.SetTarget(2, 2)
	c.SetClass(0, ClassReserved)
	c.SetClass(1, ClassOpportunistic)
	c.SetClass(2, ClassReserved)
	c.Access(0, blockAddr(cfg, 0, 1)) // reserved, within target
	c.Access(1, blockAddr(cfg, 0, 3))
	c.Access(1, blockAddr(cfg, 0, 4))
	c.Access(1, blockAddr(cfg, 0, 5)) // opportunistic fills 3 free ways
	// Owner 2 (under its 2-way target) misses; no owner is over
	// allocated vs target... owner 1 has target 0 and occupancy 3, so it
	// IS over-allocated; but the rule prefers reserved over-allocated
	// first — there are none — then opportunistic LRU (tag 3).
	r := c.Access(2, blockAddr(cfg, 0, 9))
	if r.VictimOwner != 1 {
		t.Fatalf("victim owner = %d, want 1 (opportunistic)", r.VictimOwner)
	}
	// And the reserved within-target block must survive.
	if got := int(c.occupancy[0][0]); got != 1 {
		t.Errorf("reserved owner 0 occupancy = %d, want 1", got)
	}
}

func TestPartitionedTargetPanics(t *testing.T) {
	c := NewPartitioned(tiny())
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { c.SetTarget(0, -1) })
	mustPanic(func() { c.SetTarget(0, 5) })
	c.SetTarget(0, 3)
	mustPanic(func() { c.SetTarget(1, 2) }) // sum 5 > 4 ways
}

func TestGlobalPartitioningTracksTargets(t *testing.T) {
	cfg := tiny()
	c := NewGlobal(cfg)
	c.SetTargetWays(0, 3)
	c.SetTargetWays(1, 1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40000; i++ {
		owner := 0
		if i%4 == 3 {
			owner = 1
		}
		c.Access(owner, Addr(rng.Intn(512)*cfg.BlockSize))
	}
	total := int64(cfg.Sets() * cfg.Ways)
	occ0, occ1 := c.globalOcc[0], c.globalOcc[1]
	if occ0+occ1 > total {
		t.Fatalf("occupancy %d+%d exceeds capacity %d", occ0, occ1, total)
	}
	// Global counts should be near their block targets (within 15%).
	t0 := float64(c.targetBlocks[0])
	if f := float64(occ0); f < t0*0.85 || f > t0*1.15 {
		t.Errorf("owner 0 global occupancy %d far from target %v", occ0, t0)
	}
}

func TestOccupancyInvariant(t *testing.T) {
	// Property: after any access sequence, per-set occupancies sum to at
	// most Ways, and globalOcc equals the sum over sets.
	cfg := tiny()
	f := func(seed int64, n uint8) bool {
		c := NewPartitioned(cfg)
		c.SetTarget(0, 1)
		c.SetTarget(1, 2)
		c.SetClass(0, ClassReserved)
		c.SetClass(1, ClassReserved)
		c.SetClass(2, ClassOpportunistic)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)*16; i++ {
			owner := rng.Intn(3)
			c.Access(owner, Addr(rng.Intn(256)*cfg.BlockSize))
		}
		for s := 0; s < cfg.Sets(); s++ {
			sum := 0
			for o := 0; o < cfg.Owners; o++ {
				sum += int(c.occupancy[s][o])
			}
			if sum > cfg.Ways {
				return false
			}
		}
		for o := 0; o < cfg.Owners; o++ {
			var sum int64
			for s := 0; s < cfg.Sets(); s++ {
				sum += int64(c.occupancy[s][o])
			}
			if sum != c.globalOcc[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsResetKeepsContents(t *testing.T) {
	cfg := tiny()
	c := NewLRU(cfg)
	a := blockAddr(cfg, 2, 5)
	c.Access(0, a)
	c.ResetStats()
	if acc, miss := c.Stats(0); acc != 0 || miss != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
	if r := c.Access(0, a); !r.Hit {
		t.Fatal("ResetStats should not flush contents")
	}
}

func TestMissRatio(t *testing.T) {
	cfg := tiny()
	c := NewLRU(cfg)
	a := blockAddr(cfg, 0, 1)
	c.Access(0, a) // miss
	c.Access(0, a) // hit
	c.Access(0, a) // hit
	c.Access(0, a) // hit
	if mr := c.MissRatio(0); mr != 0.25 {
		t.Errorf("miss ratio = %v, want 0.25", mr)
	}
	if mr := c.MissRatio(1); mr != 0 {
		t.Errorf("idle owner miss ratio = %v, want 0", mr)
	}
}

func TestWriteBackSemantics(t *testing.T) {
	cfg := tiny()
	c := NewPartitioned(cfg)
	c.SetTarget(0, 2)
	c.SetClass(0, ClassReserved)
	// Fill the 2-way partition in set 0 with dirty blocks, then force
	// evictions: each displaced dirty block is a write-back.
	for tag := uint64(1); tag <= 2; tag++ {
		if r := c.Write(0, blockAddr(cfg, 0, tag)); r.Evicted || r.WriteBack {
			t.Fatalf("fill %d into an empty partition evicted: %+v", tag, r)
		}
	}
	r := c.Write(0, blockAddr(cfg, 0, 3))
	if !r.Evicted || !r.WriteBack {
		t.Fatalf("dirty eviction not reported: %+v", r)
	}
	// Clean blocks evict without write-backs.
	c2 := NewPartitioned(cfg)
	c2.SetTarget(0, 2)
	c2.SetClass(0, ClassReserved)
	c2.Access(0, blockAddr(cfg, 0, 1))
	c2.Access(0, blockAddr(cfg, 0, 2))
	if r := c2.Access(0, blockAddr(cfg, 0, 3)); r.WriteBack {
		t.Error("clean eviction reported a write-back")
	}
	// A write hit dirties the line for later eviction.
	c3 := NewLRU(cfg)
	c3.Access(0, blockAddr(cfg, 0, 1)) // clean fill
	c3.Write(0, blockAddr(cfg, 0, 1))  // dirty it
	writeBacks := 0
	for tag := uint64(2); tag <= 5; tag++ {
		if c3.Access(0, blockAddr(cfg, 0, tag)).WriteBack {
			writeBacks++
		}
	}
	if writeBacks != 1 {
		t.Errorf("LRU write-backs = %d, want 1", writeBacks)
	}
}

// sweepGeometries returns every geometry the experiments exercise: the
// paper's L2 plus the geometry-sweep L2s (1 MB/8-way, 2 MB/16-way,
// 4 MB/32-way).
func sweepGeometries() []Config {
	mk := func(sizeMB, ways int) Config {
		return Config{SizeBytes: sizeMB << 20, Ways: ways, BlockSize: 64, Owners: 4, HitCycles: 10}
	}
	return []Config{PaperL2(), mk(1, 8), mk(2, 16), mk(4, 32)}
}

// TestIndexDecomposition pins the set/tag split against an arithmetic
// reference model across every experiment geometry. It guards the
// precomputed tagShift: set and tag must together identify the block,
// and nothing below the block offset may leak into either.
func TestIndexDecomposition(t *testing.T) {
	for _, cfg := range sweepGeometries() {
		c := NewLRU(cfg)
		sets := uint64(cfg.Sets())
		block := uint64(cfg.BlockSize)
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 10_000; i++ {
			addr := Addr(rng.Uint64() >> 7) // keep sums below overflow
			set, tag := c.index(addr)
			blk := uint64(addr) / block
			wantSet := int(blk % sets)
			wantTag := blk / sets
			if set != wantSet || tag != wantTag {
				t.Fatalf("%+v: index(%#x) = (%d, %#x), want (%d, %#x)",
					cfg, addr, set, tag, wantSet, wantTag)
			}
			// The decomposition must be invertible back to the block.
			if back := (tag*sets + uint64(set)) * block; back != blk*block {
				t.Fatalf("%+v: (set,tag) does not reconstruct block of %#x", cfg, addr)
			}
			// Offsets within one block must not change the mapping.
			s2, t2 := c.index(Addr(blk*block + block - 1))
			if s2 != set || t2 != tag {
				t.Fatalf("%+v: block offset leaked into index of %#x", cfg, addr)
			}
		}
	}
}

// TestIndexDistinctBlocksCollide checks that two addresses share a cache
// line exactly when they fall in the same block — i.e. the tag bits do
// not alias adjacent blocks — by round-tripping through real accesses.
func TestIndexDistinctBlocksCollide(t *testing.T) {
	for _, cfg := range sweepGeometries() {
		c := NewLRU(cfg)
		a := blockAddr(cfg, 1, 5)
		c.Access(0, a)
		if r := c.Access(0, a+Addr(cfg.BlockSize)/2); !r.Hit {
			t.Errorf("%+v: same-block access missed", cfg)
		}
		if r := c.Access(0, a+Addr(cfg.BlockSize)); r.Hit {
			t.Errorf("%+v: next block aliased onto the same line", cfg)
		}
		// Same set, different tag must coexist, not alias.
		c.Access(0, blockAddr(cfg, 1, 6))
		if r := c.Access(0, a); !r.Hit {
			t.Errorf("%+v: distinct tags in one set collided", cfg)
		}
	}
}

// TestFreeWayPicksLowestInvalid pins the free-way hint's contract: the
// fill path must behave exactly like a linear scan for the lowest-index
// invalid way.
func TestFreeWayPicksLowestInvalid(t *testing.T) {
	cfg := tiny()
	c := NewLRU(cfg)
	// naive recomputes the answer from scratch.
	naive := func(set int) int {
		for w, ln := range c.sets[set] {
			if !ln.valid {
				return w
			}
		}
		return -1
	}
	check := func(when string) {
		t.Helper()
		for s := 0; s < cfg.Sets(); s++ {
			if got, want := c.freeWay(s), naive(s); got != want {
				t.Fatalf("%s: set %d freeWay = %d, want %d", when, s, got, want)
			}
		}
	}
	check("empty cache")
	// Fill set 0 way by way; the free way must track the scan frontier.
	for tag := uint64(0); tag < uint64(cfg.Ways); tag++ {
		c.Access(int(tag)%cfg.Owners, blockAddr(cfg, 0, tag))
		check("during fill")
	}
	if c.freeWay(0) != -1 {
		t.Fatal("full set should report no free way")
	}
}

// TestEmptyMeasurementsReadAsNoMisses: a curve with no points reads 1
// (no cache) everywhere, and a profiler that measured nothing reports
// no misses at any allocation, as MissRatio does for an owner with no
// accesses.
func TestEmptyMeasurementsReadAsNoMisses(t *testing.T) {
	if got := (MissCurve{}).At(4); got != 1 {
		t.Errorf("empty curve At(4) = %v, want 1", got)
	}
	curve := NewStackProfiler(tiny()).Curve()
	for w, r := range curve.Ratio[1:] {
		if r != 0 {
			t.Errorf("unmeasured curve at %d ways = %v, want 0", w+1, r)
		}
	}
}

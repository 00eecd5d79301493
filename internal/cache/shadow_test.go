package cache

import (
	"math/rand"
	"testing"

	"cmpqos/internal/steal"
)

// shadowAccesses is owner's cumulative shadow-tag access count.
func shadowAccesses(st *ShadowTags, owner int) int64 {
	a, _ := st.shadow.Stats(owner)
	return a
}

// shadowRig wires a main partitioned cache to a shadow array and replays
// a random access mix through both.
type shadowRig struct {
	cfg    Config
	main   *Partitioned
	shadow *ShadowTags
}

func newShadowRig(cfg Config, every int) *shadowRig {
	return &shadowRig{cfg: cfg, main: NewPartitioned(cfg), shadow: NewShadowTags(cfg, every)}
}

func (r *shadowRig) access(owner int, addr Addr) Result {
	res := r.main.Access(owner, addr)
	r.shadow.Observe(owner, addr, res)
	return res
}

func TestShadowMatchesMainWhenTargetsEqual(t *testing.T) {
	// With identical targets in main and shadow, the shadow's misses on
	// sampled sets must equal the main tags' misses on sampled sets —
	// both arrays see the same stream and run the same policy.
	cfg := Config{SizeBytes: 64 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 2, HitCycles: 10}
	rig := newShadowRig(cfg, 8)
	for _, o := range []int{0, 1} {
		rig.main.SetTarget(o, 2)
		rig.main.SetClass(o, ClassReserved)
		rig.shadow.SetTarget(o, 2)
		rig.shadow.SetClass(o, ClassReserved)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		owner := rng.Intn(2)
		rig.access(owner, Addr(rng.Intn(2048)*cfg.BlockSize))
	}
	for _, o := range []int{0, 1} {
		mm := rig.shadow.MainMisses(o)
		sm := rig.shadow.ShadowMisses(o)
		if mm != sm {
			t.Errorf("owner %d: main sampled misses %d != shadow misses %d", o, mm, sm)
		}
		if steal.ExcessMissRatio(mm, sm) != 0 {
			t.Errorf("owner %d: excess ratio = %v, want 0", o, steal.ExcessMissRatio(mm, sm))
		}
	}
}

func TestShadowDetectsStealingDamage(t *testing.T) {
	// Shrink the main-cache target below the shadow's frozen target for a
	// cache-hungry access pattern: main misses on sampled sets must
	// exceed shadow misses, i.e. ExcessMissRatio > 0.
	cfg := Config{SizeBytes: 64 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 2, HitCycles: 10}
	rig := newShadowRig(cfg, 8)
	rig.main.SetTarget(0, 1) // stolen down to 1 way
	rig.main.SetClass(0, ClassReserved)
	rig.shadow.SetTarget(0, 3) // original allocation
	rig.shadow.SetClass(0, ClassReserved)
	rng := rand.New(rand.NewSource(5))
	// Working set of ~2.5 ways worth of blocks: fits in 3 ways, thrashes 1.
	wsBlocks := cfg.Sets() * 5 / 2
	for i := 0; i < 200000; i++ {
		rig.access(0, Addr(rng.Intn(wsBlocks)*cfg.BlockSize))
	}
	mm, sm := rig.shadow.MainMisses(0), rig.shadow.ShadowMisses(0)
	if mm <= sm {
		t.Fatalf("expected stolen config to miss more: main %d, shadow %d", mm, sm)
	}
	if r := steal.ExcessMissRatio(mm, sm); r <= 0 {
		t.Errorf("excess ratio = %v, want > 0", r)
	}
}

func TestShadowSamplingOnlySampledSets(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 1, HitCycles: 10}
	st := NewShadowTags(cfg, 8)
	st.SetTarget(0, 2)
	st.SetClass(0, ClassReserved)
	main := NewPartitioned(cfg)
	main.SetTarget(0, 2)
	main.SetClass(0, ClassReserved)
	// Access only unsampled sets, every access a miss: shadow must see
	// nothing, and no main-tag miss is counted.
	for i := 0; i < 100; i++ {
		a := blockAddr(cfg, 3, uint64(i)) // set 3: unsampled
		st.Observe(0, a, main.Access(0, a))
	}
	if shadowAccesses(st, 0) != 0 || st.MainMisses(0) != 0 {
		t.Fatal("shadow observed accesses to unsampled sets")
	}
	// Set 8 is sampled (8 % 8 == 0): a cold miss, then a hit.
	a := blockAddr(cfg, 8, 1)
	st.Observe(0, a, main.Access(0, a))
	st.Observe(0, a, main.Access(0, a))
	if shadowAccesses(st, 0) != 2 || st.MainMisses(0) != 1 {
		t.Fatalf("sampled accesses not observed: shadow accesses=%d main misses=%d",
			shadowAccesses(st, 0), st.MainMisses(0))
	}
}

func TestShadowTagUniqueness(t *testing.T) {
	// Two blocks mapping to different sampled main sets must not collide
	// in the shadow, and two different tags in the same main set must be
	// distinguished.
	cfg := Config{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 1, HitCycles: 10}
	st := NewShadowTags(cfg, 8)
	st.SetTarget(0, 4)
	st.SetClass(0, ClassReserved)
	main := NewPartitioned(cfg)
	main.SetTarget(0, 4)
	main.SetClass(0, ClassReserved)
	feed := func(set int, tag uint64) {
		a := blockAddr(cfg, set, tag)
		st.Observe(0, a, main.Access(0, a))
	}
	feed(0, 1)
	feed(8, 1) // same tag, different sampled set -> different shadow sets
	feed(0, 2)
	if st.ShadowMisses(0) != 3 {
		t.Fatalf("shadow misses = %d, want 3 (all distinct blocks)", st.ShadowMisses(0))
	}
	feed(0, 1) // re-access: must hit in the shadow
	if st.ShadowMisses(0) != 3 {
		t.Errorf("re-access missed: shadow misses = %d, want 3", st.ShadowMisses(0))
	}
}

// TestShadowReset: ResetOwner, what the trace engine calls when a new
// Elastic job is installed on a core, zeroes that owner's miss streams
// and nothing else — other owners' counters and the shadow contents
// survive.
func TestShadowReset(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 2, HitCycles: 10}
	st := NewShadowTags(cfg, 8)
	main := NewPartitioned(cfg)
	for owner := 0; owner < 2; owner++ {
		st.SetTarget(owner, 2)
		st.SetClass(owner, ClassReserved)
		main.SetTarget(owner, 2)
		main.SetClass(owner, ClassReserved)
	}
	a, b := blockAddr(cfg, 0, 1), blockAddr(cfg, 0, 2)
	st.Observe(0, a, main.Access(0, a))
	st.Observe(1, b, main.Access(1, b))
	if st.ShadowMisses(0) != 1 || st.MainMisses(0) != 1 {
		t.Fatal("expected one main and one shadow miss before reset")
	}
	st.ResetOwner(0)
	if st.ShadowMisses(0) != 0 || st.MainMisses(0) != 0 {
		t.Fatal("reset did not clear the owner's miss counters")
	}
	if st.ShadowMisses(1) != 1 || st.MainMisses(1) != 1 {
		t.Fatal("reset disturbed another owner's miss counters")
	}
	// The contents survive: a re-access hits in both tag arrays.
	st.Observe(0, a, main.Access(0, a))
	if st.ShadowMisses(0) != 0 || st.MainMisses(0) != 0 {
		t.Fatal("reset flushed the shadow contents")
	}
}

func TestShadowConstructorValidation(t *testing.T) {
	cfg := Config{SizeBytes: 16 * 4 * 64, Ways: 4, BlockSize: 64, Owners: 1, HitCycles: 10}
	for _, every := range []int{0, -1, 3, 32} { // 3 not pow2; 32 > sets
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShadowTags(every=%d) did not panic", every)
				}
			}()
			NewShadowTags(cfg, every)
		}()
	}
}

func TestSamplingApproximatesFullCoverage(t *testing.T) {
	// Ablation (DESIGN.md): 1/8 set sampling must estimate the excess
	// miss ratio close to what full duplicate tags measure.
	cfg := Config{SizeBytes: 256 * 8 * 64, Ways: 8, BlockSize: 64, Owners: 1, HitCycles: 10}
	run := func(every int) float64 {
		main := NewPartitioned(cfg)
		main.SetTarget(0, 2)
		main.SetClass(0, ClassReserved)
		st := NewShadowTags(cfg, every)
		st.SetTarget(0, 6)
		st.SetClass(0, ClassReserved)
		rng := rand.New(rand.NewSource(21))
		ws := cfg.Sets() * 4 // ~4 ways of working set
		for i := 0; i < 400000; i++ {
			a := Addr(rng.Intn(ws) * cfg.BlockSize)
			st.Observe(0, a, main.Access(0, a))
		}
		return steal.ExcessMissRatio(st.MainMisses(0), st.ShadowMisses(0))
	}
	full := run(1)
	sampled := run(8)
	if full <= 0 {
		t.Fatalf("full-coverage excess ratio = %v, want > 0", full)
	}
	rel := (sampled - full) / full
	if rel < -0.25 || rel > 0.25 {
		t.Errorf("1/8 sampling estimate %v deviates >25%% from full %v", sampled, full)
	}
}

func TestProbeMissCurveMonotone(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 8 * 64, Ways: 8, BlockSize: 64, Owners: 1, HitCycles: 10}
	mk := func() AddrStream {
		return &uniformStream{rng: rand.New(rand.NewSource(9)), blocks: cfg.Sets() * 4, blockSize: cfg.BlockSize}
	}
	curve := ProbeMissCurve(cfg, mk, 20000, 50000)
	if curve.Ratio[0] != 1 {
		t.Errorf("Ratio[0] = %v, want 1", curve.Ratio[0])
	}
	for w := 2; w <= cfg.Ways; w++ {
		if curve.Ratio[w] > curve.Ratio[w-1]+0.02 {
			t.Errorf("miss curve not (approximately) monotone at %d ways: %v > %v",
				w, curve.Ratio[w], curve.Ratio[w-1])
		}
	}
	if curve.At(1) <= curve.At(8) {
		t.Errorf("expected fewer misses with more ways: %v vs %v", curve.At(1), curve.At(8))
	}
	// Clamping.
	if curve.At(-3) != 1 {
		t.Errorf("At(-3) = %v, want 1", curve.At(-3))
	}
	if curve.At(100) != curve.Ratio[8] {
		t.Errorf("At(100) should clamp to Ratio[8]")
	}
}

// uniformStream issues uniform random block accesses over a fixed pool.
type uniformStream struct {
	rng       *rand.Rand
	blocks    int
	blockSize int
}

func (u *uniformStream) Next() Addr {
	return Addr(u.rng.Intn(u.blocks) * u.blockSize)
}

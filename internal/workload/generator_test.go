package workload

import (
	"testing"

	"cmpqos/internal/cache"
)

// probeCfg is the full paper L2 geometry with a single owner: region
// footprints in the profiles are absolute sizes, so sensitivity must be
// probed at the real capacity-per-way.
func probeCfg() cache.Config {
	return cache.Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10}
}

func TestStreamDeterminism(t *testing.T) {
	p := MustByName("bzip2")
	a := p.NewStream(7, 3)
	b := p.NewStream(7, 3)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams with identical seeds diverged")
		}
	}
	c := p.NewStream(8, 3)
	same := true
	for i := 0; i < 1000; i++ {
		if a.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Error("streams with different seeds were identical")
	}
}

func TestStreamsDisjointAcrossJobs(t *testing.T) {
	p := MustByName("gobmk")
	s0 := p.NewStream(1, 0)
	s1 := p.NewStream(1, 1)
	seen := map[cache.Addr]bool{}
	for i := 0; i < 5000; i++ {
		seen[s0.Next()] = true
	}
	for i := 0; i < 5000; i++ {
		if seen[s1.Next()] {
			t.Fatal("two jobs' address streams overlap")
		}
	}
}

// TestSubBlockRegionIsOneBlock: a region smaller than a cache block is
// one block, every access to the same address.
func TestSubBlockRegionIsOneBlock(t *testing.T) {
	s := Profile{Regions: []Region{{SizeBytes: 10, Weight: 1}}}.NewStream(1, 0)
	first := s.Next()
	for i := 0; i < 100; i++ {
		if a := s.Next(); a != first {
			t.Fatalf("access %d to %#x, want the region's one block %#x", i, uint64(a), uint64(first))
		}
	}
}

func TestStreamBlockAligned(t *testing.T) {
	p := MustByName("milc")
	s := p.NewStream(3, 0)
	for i := 0; i < 1000; i++ {
		if a := s.Next(); uint64(a)%64 != 0 {
			t.Fatalf("address %#x not 64-byte aligned", uint64(a))
		}
	}
}

func TestTraceCurvesReproduceGroups(t *testing.T) {
	// The trace generator must reproduce the Figure 4 classification
	// through the *real* cache model: the representative Group 1
	// benchmark's measured miss curve falls much more steeply with added
	// ways than the Group 3 representative's.
	if testing.Short() {
		t.Skip("trace probe is slow")
	}
	cfg := probeCfg()
	drop := func(name string) float64 {
		c := MustByName(name).ProbeCurve(cfg, 300000, 300000)
		if c.At(2) <= 0 {
			t.Fatalf("%s: no misses at 2 ways?", name)
		}
		return (c.At(2) - c.At(14)) / c.At(2)
	}
	bz := drop("bzip2")
	gk := drop("gobmk")
	if bz < 0.3 {
		t.Errorf("bzip2 trace curve too flat: relative drop %v", bz)
	}
	if gk > bz/2 {
		t.Errorf("gobmk trace curve too steep: drop %v vs bzip2 %v", gk, bz)
	}
}

func TestStreamingNeverRehits(t *testing.T) {
	// A pure-streaming profile must keep missing: probe libquantum and
	// check the measured curve stays high at full allocation.
	if testing.Short() {
		t.Skip("trace probe is slow")
	}
	cfg := probeCfg()
	c := MustByName("libquantum").ProbeCurve(cfg, 100000, 100000)
	if c.At(16) < 0.5 {
		t.Errorf("libquantum measured miss ratio at 16 ways = %v, want > 0.5", c.At(16))
	}
}

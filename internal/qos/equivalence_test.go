package qos

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential testing: the indexed usage-profile Timeline must be
// bit-identical to the naive reservation-list reference for every
// operation sequence. The fuzzer interprets raw bytes as an op stream,
// drives both implementations, and fails on the first divergence —
// query results, mutation outcomes, eviction order, or full state.

// tlPair drives both implementations in lock-step.
type tlPair struct {
	t     *testing.T
	fast  *Timeline
	naive *naiveTimeline
	ids   []int // every ID ever issued, live or not
	// bound sizes every drawn amount in ninths of MaxCapacity, at most
	// nine: the capacity sits at the bound and reservations fill it.
	bound     bool
	transient int64 // see reserve
}

func newTLPair(t *testing.T, capacity ResourceVector) *tlPair {
	return &tlPair{t: t, fast: NewTimeline(capacity), naive: newNaiveTimeline(capacity)}
}

// amt scales a drawn amount: as drawn, or at the bound in ninths of
// MaxCapacity (which nine divides), at most nine of them.
func (p *tlPair) amt(n int) int {
	if !p.bound {
		return n
	}
	return min(n, 9) * (MaxCapacity / 9)
}

// declared is v in the dimensions capacity declares, zero elsewhere:
// the indexed timeline tracks only those, so its usage and availability
// are compared with the naive one's there. The naive one sums every
// dimension and decides by Fits, which ignores the others.
func declared(capacity, v ResourceVector) ResourceVector {
	return tracked(capacity, v).vec()
}

// wide draws an amount from the whole non-negative int range, for a
// dimension the capacity does not declare: math.MaxInt, half of it, …, 1,
// 0.
func wide(b byte) int { return math.MaxInt >> (b % 64) }

func (p *tlPair) pickID(b byte) int {
	if len(p.ids) == 0 {
		return int(b) // unknown IDs must no-op identically
	}
	return p.ids[int(b)%len(p.ids)]
}

// checkState compares every observable surface of the two timelines.
func (p *tlPair) checkState(tag string) {
	p.t.Helper()
	if p.fast.Len() != p.naive.Len() {
		p.t.Fatalf("%s: Len %d != naive %d", tag, p.fast.Len(), p.naive.Len())
	}
	if p.fast.Capacity() != p.naive.Capacity() {
		p.t.Fatalf("%s: Capacity %v != naive %v", tag, p.fast.Capacity(), p.naive.Capacity())
	}
	fr, nr := p.fast.Reservations(), p.naive.Reservations()
	if len(fr) != len(nr) {
		p.t.Fatalf("%s: Reservations len %d != naive %d", tag, len(fr), len(nr))
	}
	for i := range fr {
		if fr[i] != nr[i] {
			p.t.Fatalf("%s: Reservations[%d] %+v != naive %+v", tag, i, fr[i], nr[i])
		}
	}
	lo, hi := int64(-10), p.naive.Horizon(0)+10
	if fh := p.fast.Horizon(0); fh != p.naive.Horizon(0) {
		p.t.Fatalf("%s: Horizon %d != naive %d", tag, fh, p.naive.Horizon(0))
	}
	c := p.fast.Capacity()
	for x := lo; x <= hi; x += (hi - lo) / 17 {
		if fu, nu := p.fast.UsageAt(x), declared(c, p.naive.UsageAt(x)); fu != nu {
			p.t.Fatalf("%s: UsageAt(%d) %v != naive %v", tag, x, fu, nu)
		}
	}
	fa, na := p.fast.Availability(lo, hi), p.naive.Availability(lo, hi)
	if len(fa) != len(na) {
		p.t.Fatalf("%s: Availability len %d != naive %d\nfast %+v\nnaive %+v",
			tag, len(fa), len(na), fa, na)
	}
	for i := range fa {
		if na[i].Free = declared(c, na[i].Free); fa[i] != na[i] {
			p.t.Fatalf("%s: Availability[%d] %+v != naive %+v", tag, i, fa[i], na[i])
		}
	}
	if fs, ns := p.fast.Render(lo, hi, 24), p.naive.Render(lo, hi, 24); fs != ns {
		p.t.Fatalf("%s: Render diverged\nfast:\n%s\nnaive:\n%s", tag, fs, ns)
	}
}

// reserve reserves vec at start on both timelines. At the bound it
// first records the largest usage the fast one's start edge lifts an
// instant at or after the window's end to before the end edge goes in
// (p.transient): that instant's usage plus vec, in any declared
// dimension. Usage only rises at a start, so the instants to check are
// the end and every later start.
func (p *tlPair) reserve(jobID int, vec ResourceVector, start, dur int64) {
	p.t.Helper()
	if p.bound {
		c, end := p.fast.Capacity(), start+dur
		for _, r := range append(p.fast.Reservations(), Reservation{Start: end}) {
			if r.Start >= end {
				u := tracked(c, p.fast.UsageAt(r.Start)).add(tracked(c, vec))
				p.transient = max(p.transient, u[dimCores], u[dimWays], u[dimMem], u[dimBW])
			}
		}
	}
	fid := p.fast.Reserve(jobID, vec, start, dur)
	if nid := p.naive.Reserve(jobID, vec, start, dur); fid != nid {
		p.t.Fatalf("Reserve ID %d != naive %d", fid, nid)
	}
	p.ids = append(p.ids, fid)
}

// step decodes and applies one operation; returns bytes consumed.
func (p *tlPair) step(op []byte) int {
	p.t.Helper()
	if len(op) < 6 {
		return len(op)
	}
	c := p.fast.Capacity()
	vec := ResourceVector{Cores: p.amt(int(op[1]%5) + 1), CacheWays: p.amt(int(op[2]%9) + 1)}
	switch {
	case op[1]&0x80 == 0:
	case c.MemoryMB > 0:
		vec.MemoryMB = p.amt(int(op[1] % 64))
	default:
		vec.MemoryMB = wide(op[3])
	}
	switch {
	case op[2]&0x80 == 0:
	case c.BandwidthMBps > 0:
		vec.BandwidthMBps = p.amt(int(op[4] % 64))
	default:
		vec.BandwidthMBps = wide(op[4])
	}
	now := int64(op[3]) * 37
	dur := int64(op[4])*31 + 1
	deadline := now + dur + int64(op[5])*29
	switch op[0] % 8 {
	case 0, 1: // EarliestFit, then reserve on success
		if op[5]%3 == 0 {
			deadline = 0
		}
		fs, fok := p.fast.EarliestFit(vec, now, dur, deadline)
		ns, nok := p.naive.EarliestFit(vec, now, dur, deadline)
		if fs != ns || fok != nok {
			p.t.Fatalf("EarliestFit(%v,%d,%d,%d) = (%d,%v) != naive (%d,%v)",
				vec, now, dur, deadline, fs, fok, ns, nok)
		}
		if fok {
			p.reserve(int(op[1]), vec, fs, dur)
		}
	case 2: // LatestFit, then reserve on success
		fs, fok := p.fast.LatestFit(vec, now, dur, deadline)
		ns, nok := p.naive.LatestFit(vec, now, dur, deadline)
		if fs != ns || fok != nok {
			p.t.Fatalf("LatestFit(%v,%d,%d,%d) = (%d,%v) != naive (%d,%v)",
				vec, now, dur, deadline, fs, fok, ns, nok)
		}
		if fok {
			p.reserve(int(op[1]), vec, fs, dur)
		}
	case 3: // Release
		id := p.pickID(op[1])
		p.fast.Release(id)
		p.naive.Release(id)
	case 4: // complete: LAC.Complete's release, then prune
		id := p.pickID(op[1])
		p.fast.Release(id)
		p.fast.Prune(now)
		p.naive.Release(id)
		p.naive.Prune(now)
	case 5: // ShrinkVec
		id := p.pickID(op[1])
		sv := ResourceVector{Cores: p.amt(int(op[2] % 6)), CacheWays: p.amt(int(op[3] % 10))}
		if fok, nok := p.fast.ShrinkVec(id, sv), p.naive.ShrinkVec(id, sv); fok != nok {
			p.t.Fatalf("ShrinkVec(%d,%v) %v != naive %v", id, sv, fok, nok)
		}
	case 6: // SetCapacity — evicted slices must match element-for-element
		// The declared dimensions stay those of the first capacity:
		// SetCapacity refuses to change them.
		nc := ResourceVector{Cores: p.amt(int(op[1]%6) + 1), CacheWays: p.amt(int(op[2]%17) + 1)}
		if c.MemoryMB > 0 {
			nc.MemoryMB = p.amt(int(op[3]%64) + 1)
		}
		if c.BandwidthMBps > 0 {
			nc.BandwidthMBps = p.amt(int(op[4]%64) + 1)
		}
		fe := p.fast.SetCapacity(nc, now)
		ne := p.naive.SetCapacity(nc, now)
		if len(fe) != len(ne) {
			p.t.Fatalf("SetCapacity(%v,%d) evicted %d != naive %d\nfast %+v\nnaive %+v",
				nc, now, len(fe), len(ne), fe, ne)
		}
		for i := range fe {
			if fe[i] != ne[i] {
				p.t.Fatalf("SetCapacity evicted[%d] %+v != naive %+v", i, fe[i], ne[i])
			}
		}
	case 7: // Prune
		p.fast.Prune(now)
		p.naive.Prune(now)
	}
	id := p.pickID(op[2])
	fg, fok := p.fast.Get(id)
	ng, nok := p.naive.Get(id)
	if fok != nok || (fok && fg != ng) {
		p.t.Fatalf("Get(%d) = (%+v,%v) != naive (%+v,%v)", id, fg, fok, ng, nok)
	}
	return 6
}

// runEquivalence decodes a two-byte header, then 6-byte ops. Header
// byte 0's bit 0x40 declares memory, 0x20 bandwidth, and 0x80 puts the
// capacity at MaxCapacity in every declared dimension (p.bound).
func runEquivalence(t *testing.T, data []byte) *tlPair {
	capacity := ResourceVector{Cores: 4, CacheWays: 16}
	bound := false
	if len(data) >= 2 {
		capacity = ResourceVector{Cores: int(data[0]%8) + 1, CacheWays: int(data[1]%32) + 1}
		if data[0]&0x40 != 0 {
			capacity.MemoryMB = 128
		}
		if data[0]&0x20 != 0 {
			capacity.BandwidthMBps = 96
		}
		if bound = data[0]&0x80 != 0; bound {
			capacity = tracked(capacity, ResourceVector{MaxCapacity, MaxCapacity, MaxCapacity, MaxCapacity}).vec()
		}
		data = data[2:]
	}
	p := newTLPair(t, capacity)
	p.bound = bound
	steps := 0
	for len(data) >= 6 {
		n := p.step(data)
		data = data[n:]
		steps++
		if steps%8 == 0 {
			p.checkState(fmt.Sprintf("step %d", steps))
		}
	}
	p.checkState("final")
	return p
}

// FuzzTimelineEquivalence drives random operation sequences against both
// the indexed and the naive Timeline, failing on any divergence.
func FuzzTimelineEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 16, 0, 1, 10, 20, 0, 0, 2, 10, 10, 0})
	f.Add([]byte{2, 20, 2, 3, 4, 9, 50, 6, 3, 1, 0, 0, 4, 2, 0, 5, 0, 0})
	f.Add([]byte{7, 31, 6, 2, 8, 1, 0, 0, 6, 1, 1, 1, 0, 0, 7, 0, 0, 0, 0, 0})
	// A longer mixed workload: admissions, completions, a capacity fault,
	// shrinks, and prunes.
	long := []byte{4, 16}
	for i := 0; i < 40; i++ {
		long = append(long, byte(i*5), byte(i*13+128), byte(i*7), byte(i%11), byte(i*3), byte(i))
	}
	f.Add(long)
	f.Add(memoStream(1))
	// Two Strict holds with an undeclared memory component of
	// math.MaxInt on {4 cores, 16 ways}: both start at 0.
	f.Add([]byte{3, 15, 0, 0x82, 6, 0, 10, 0, 0, 0x82, 6, 0, 10, 0})
	f.Add(boundStream(1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		runEquivalence(t, data)
	})
}

// TestTimelineEquivalenceRandom runs the same differential harness on
// seeded pseudo-random streams in every plain `go test` invocation, so
// coverage does not depend on running the fuzzer, and on memoStream's
// repeated-shape streams.
func TestTimelineEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+6*120)
		rng.Read(data)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runEquivalence(t, data)
		})
		t.Run(fmt.Sprintf("memo/seed=%d", seed), func(t *testing.T) {
			runEquivalence(t, memoStream(seed))
		})
	}
}

// TestTimelineEquivalenceAtBound runs the differential harness with the
// capacity at MaxCapacity in cores, ways and memory, on streams that
// fill ways and memory and place full holds ahead of later ones: each
// such start edge lifts the profile to 2·MaxCapacity until its end
// edge goes in, the largest value its int32 aggregates must hold.
func TestTimelineEquivalenceAtBound(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if p := runEquivalence(t, boundStream(seed)); p.transient != 2*MaxCapacity {
				t.Fatalf("the largest insert transient was %d, want 2·MaxCapacity = %d", p.transient, 2*MaxCapacity)
			}
		})
	}
}

// boundStream is a differential op stream at the bound (header bits
// 0x80 and 0x40): holds that take every way and all memory, with
// arrival times that often fall back, so a full hold lands before a
// full one already placed.
func boundStream(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{0xc0, 0}
	now := 0
	for i := 0; i < 120; i++ {
		kind := byte(0) // EarliestFit
		switch rng.Intn(8) {
		case 0:
			kind = 2 // LatestFit
		case 1:
			kind = byte(3 + rng.Intn(2)) // release, or complete
		}
		if rng.Intn(3) == 0 {
			now = max(now-rng.Intn(60), 0)
		} else {
			now = min(now+rng.Intn(8), 255)
		}
		// Ways are nine ninths (byte%9 == 8), memory 0x80|9..63 ninths
		// clipped to nine, cores one to five ninths.
		data = append(data, kind, byte(0x80|(9+rng.Intn(50))), byte(8+9*rng.Intn(13)),
			byte(now), byte(rng.Intn(4)), byte(rng.Intn(256)))
	}
	return data
}

// memoStream is a differential op stream that keeps returning to the
// same fit shapes: two vectors and two durations, a shape kept for
// several queries in a row, arrival times that mostly climb and often
// fall back, fits far more often than releases. Random streams almost
// never ask the same (vec, dur) twice, while an admission controller
// asks little else. (The name is from the one-entry fit memo they were
// written to exercise, since removed: DESIGN §7.5.)
func memoStream(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := []byte{3, 15} // 4 cores, 16 ways
	now, cores, ways, dur := 0, 0, 3, 2
	for i := 0; i < 150; i++ {
		kind := byte(0) // EarliestFit
		switch rng.Intn(12) {
		case 0, 1, 2:
			kind = 2 // LatestFit
		case 3:
			kind = byte(3 + rng.Intn(2)) // release, or complete
		}
		if rng.Intn(4) == 0 {
			cores, ways, dur = rng.Intn(2), []int{3, 6}[rng.Intn(2)], []int{2, 5}[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			now = max(now-rng.Intn(30), 0)
		} else {
			now = min(now+rng.Intn(8), 255)
		}
		data = append(data, kind, byte(cores), byte(ways), byte(now), byte(dur), byte(rng.Intn(256)))
	}
	return data
}

// TestSetCapacityEvictionOrder pins the §5-derived fault-eviction
// contract on the indexed structure directly: victims leave in rounds of
// (latest start, then largest ID) at the first overcommitted instant.
func TestSetCapacityEvictionOrder(t *testing.T) {
	tl := NewTimeline(ResourceVector{Cores: 8, CacheWays: 16})
	one := ResourceVector{Cores: 1, CacheWays: 2}
	// Four holds at start 0 (IDs 1..4), two at start 100 (IDs 5,6), all
	// running to 200.
	for i := 0; i < 4; i++ {
		tl.Reserve(i, one, 0, 200)
	}
	tl.Reserve(4, one, 100, 100)
	tl.Reserve(5, one, 100, 100)
	// 6 cores used on [100,200); shrink to 3 from t=0. Overcommit first
	// bites at 100 only after the start-0 overcommit is resolved — the
	// first overcommitted instant is 0 (4 > 3), victim = largest ID at
	// the latest start covering 0.
	ev := tl.SetCapacity(ResourceVector{Cores: 3, CacheWays: 16}, 0)
	wantIDs := []int{4, 6, 5}
	if len(ev) != len(wantIDs) {
		t.Fatalf("evicted %d reservations, want %d: %+v", len(ev), len(wantIDs), ev)
	}
	for i, id := range wantIDs {
		if ev[i].ID != id {
			t.Errorf("evicted[%d].ID = %d, want %d", i, ev[i].ID, id)
		}
	}
	// Latest start beats largest ID: a later-starting low-ID hold is
	// evicted before an earlier-starting high-ID one.
	tl2 := NewTimeline(ResourceVector{Cores: 2, CacheWays: 16})
	tl2.Reserve(0, one, 50, 100) // ID 1, covers 50..150
	tl2.Reserve(1, one, 0, 200)  // ID 2, covers 0..200
	ev2 := tl2.SetCapacity(ResourceVector{Cores: 1, CacheWays: 16}, 0)
	if len(ev2) != 1 || ev2[0].ID != 1 {
		t.Fatalf("evicted %+v, want the latest-start reservation (ID 1)", ev2)
	}
}

// TestSetCapacityEvictionOrderRandom cross-checks the eviction sequence
// against the naive reference over random dense packs.
func TestSetCapacityEvictionOrderRandom(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTLPair(t, ResourceVector{Cores: 8, CacheWays: 32})
		for i := 0; i < 30; i++ {
			vec := ResourceVector{Cores: 1 + rng.Intn(2), CacheWays: 1 + rng.Intn(4)}
			now := int64(rng.Intn(300))
			dur := int64(1 + rng.Intn(200))
			if s, ok := p.fast.EarliestFit(vec, now, dur, 0); ok {
				p.fast.Reserve(i, vec, s, dur)
				p.naive.Reserve(i, vec, s, dur)
			}
		}
		nc := ResourceVector{Cores: 1 + rng.Intn(4), CacheWays: 1 + rng.Intn(16)}
		from := int64(rng.Intn(400))
		fe := p.fast.SetCapacity(nc, from)
		ne := p.naive.SetCapacity(nc, from)
		if len(fe) != len(ne) {
			t.Fatalf("seed %d: evicted %d != naive %d", seed, len(fe), len(ne))
		}
		for i := range fe {
			if fe[i] != ne[i] {
				t.Fatalf("seed %d: evicted[%d] %+v != naive %+v", seed, i, fe[i], ne[i])
			}
		}
		p.checkState(fmt.Sprintf("seed %d post-eviction", seed))
	}
}

// TestAppendAvailabilityZeroAlloc pins the satellite fix: deriving the
// availability profile from the sorted boundary tree allocates nothing
// when the caller's buffer has capacity.
func TestAppendAvailabilityZeroAlloc(t *testing.T) {
	tl := NewTimeline(nodeCap())
	med := PresetMedium()
	for i := 0; i < 16; i++ {
		tl.Reserve(i, med, int64(i/2)*500, 500)
	}
	buf := make([]AvailabilityStep, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = tl.AppendAvailability(buf[:0], 0, 5000)
	})
	if allocs != 0 {
		t.Errorf("AppendAvailability allocated %.1f times per call, want 0", allocs)
	}
	if len(buf) == 0 {
		t.Fatal("no steps produced")
	}
}

// BenchmarkNaiveTimelineEarliestFit documents the asymptotic gap the
// indexed profile closes: the reference implementation's candidate scan
// re-sums usage per boundary per candidate (O(n³) when fully blocked),
// so it is only benchmarkable at small n. Compare against the root
// package's BenchmarkTimelineEarliestFit curve.
func BenchmarkNaiveTimelineEarliestFit(b *testing.B) {
	med := PresetMedium()
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tl := newNaiveTimeline(nodeCap())
			for i := 0; i < n; i++ {
				tl.Reserve(i, med, int64(i/2)*1000, 1000)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tl.EarliestFit(med, 0, 1000, 0); !ok {
					b.Fatal("no fit found")
				}
			}
		})
	}
}

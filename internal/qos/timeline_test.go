package qos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func nodeCap() ResourceVector { return ResourceVector{Cores: 4, CacheWays: 16} }

func TestTimelineBasicReserve(t *testing.T) {
	tl := NewTimeline(nodeCap())
	med := PresetMedium()
	id := tl.Reserve(1, med, 0, 100)
	if tl.Len() != 1 {
		t.Fatal("reservation not recorded")
	}
	if u := tl.UsageAt(50); u != med {
		t.Errorf("usage at 50 = %v, want %v", u, med)
	}
	if u := tl.UsageAt(100); !u.IsZero() {
		t.Errorf("usage at end = %v, want zero (half-open interval)", u)
	}
	if a := tl.AvailableAt(50); a != nodeCap().Sub(med) {
		t.Errorf("available = %v", a)
	}
	tl.Release(id)
	if tl.Len() != 0 {
		t.Error("release failed")
	}
	tl.Release(id) // double release is a no-op
}

func TestEarliestFitPaperShape(t *testing.T) {
	// Paper §7.1/§7.2: jobs request {1 core, 7 ways}; only two fit
	// simultaneously in 16 ways, so the third job's earliest fit is when
	// the first ends.
	tl := NewTimeline(nodeCap())
	med := PresetMedium()
	tw := int64(1000)
	s1, ok := tl.EarliestFit(med, 0, tw, 0)
	if !ok || s1 != 0 {
		t.Fatalf("job1 start = %d ok=%v, want 0", s1, ok)
	}
	tl.Reserve(1, med, s1, tw)
	s2, ok := tl.EarliestFit(med, 0, tw, 0)
	if !ok || s2 != 0 {
		t.Fatalf("job2 start = %d ok=%v, want 0", s2, ok)
	}
	tl.Reserve(2, med, s2, tw)
	// Third job: 14 of 16 ways reserved; 7 more do not fit until 1000.
	s3, ok := tl.EarliestFit(med, 0, tw, 0)
	if !ok || s3 != 1000 {
		t.Fatalf("job3 start = %d ok=%v, want 1000 (external fragmentation)", s3, ok)
	}
	// With a deadline before that, the job is rejected.
	if _, ok := tl.EarliestFit(med, 0, tw, 1999); ok {
		t.Error("job with unreachable deadline must not fit")
	}
	if _, ok := tl.EarliestFit(med, 0, tw, 2000); !ok {
		t.Error("deadline exactly at fit end must be accepted")
	}
}

func TestEarliestFitChecksInteriorBoundaries(t *testing.T) {
	// A window may fit at its start but collide with a reservation that
	// begins inside it.
	tl := NewTimeline(ResourceVector{Cores: 1, CacheWays: 16})
	tl.Reserve(1, ResourceVector{Cores: 1, CacheWays: 1}, 500, 100)
	s, ok := tl.EarliestFit(ResourceVector{Cores: 1, CacheWays: 1}, 0, 1000, 0)
	if !ok {
		t.Fatal("no fit found")
	}
	if s != 600 {
		t.Errorf("start = %d, want 600 (after the interior reservation)", s)
	}
}

func TestEarliestFitOversizedRequest(t *testing.T) {
	tl := NewTimeline(nodeCap())
	if _, ok := tl.EarliestFit(ResourceVector{Cores: 5, CacheWays: 1}, 0, 10, 0); ok {
		t.Error("request beyond capacity must never fit")
	}
	if _, ok := tl.EarliestFit(PresetSmall(), 0, 0, 0); ok {
		t.Error("zero-duration request must be rejected")
	}
}

func TestLatestFit(t *testing.T) {
	tl := NewTimeline(nodeCap())
	med := PresetMedium()
	// Empty timeline: latest fit is flush against the deadline.
	s, ok := tl.LatestFit(med, 0, 1000, 3000)
	if !ok || s != 2000 {
		t.Fatalf("latest fit = %d ok=%v, want 2000", s, ok)
	}
	// A blocking reservation at the end pushes it earlier.
	tl.Reserve(1, med, 2500, 1000)
	tl.Reserve(2, med, 2500, 1000) // 14 ways used on [2500,3500)
	s, ok = tl.LatestFit(med, 0, 1000, 3000)
	if !ok || s != 1500 {
		t.Fatalf("latest fit with blockers = %d ok=%v, want 1500", s, ok)
	}
	// Unreachable deadline.
	if _, ok := tl.LatestFit(med, 2500, 1000, 3000); ok {
		t.Error("deadline−dur < now must not fit")
	}
	// No deadline means no latest fit.
	if _, ok := tl.LatestFit(med, 0, 1000, 0); ok {
		t.Error("latest fit without deadline must be rejected")
	}
}

func TestGetReservations(t *testing.T) {
	tl := NewTimeline(nodeCap())
	id := tl.Reserve(7, PresetSmall(), 100, 50)
	r, ok := tl.Get(id)
	if !ok || r.JobID != 7 || r.Start != 100 || r.End != 150 {
		t.Errorf("Get = %+v ok=%v", r, ok)
	}
	if _, ok := tl.Get(999); ok {
		t.Error("unknown ID found")
	}
	tl.Reserve(8, PresetSmall(), 0, 50)
	rs := tl.Reservations()
	if len(rs) != 2 || rs[0].JobID != 8 {
		t.Errorf("Reservations not sorted by start: %+v", rs)
	}
}

func TestReservePanicsWhenOverCommitted(t *testing.T) {
	tl := NewTimeline(ResourceVector{Cores: 1, CacheWays: 7})
	tl.Reserve(1, PresetMedium(), 0, 100)
	defer func() {
		if recover() == nil {
			t.Error("over-committing Reserve did not panic")
		}
	}()
	tl.Reserve(2, PresetMedium(), 50, 100)
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestNewTimelineValidation(t *testing.T) {
	for _, cap := range []ResourceVector{{}, {Cores: -1, CacheWays: 4},
		{Cores: MaxCapacity + 1, CacheWays: 4}, {Cores: 4, CacheWays: 16, BandwidthMBps: MaxCapacity + 1}} {
		mustPanic(t, fmt.Sprintf("NewTimeline(%v)", cap), func() { NewTimeline(cap) })
	}
	// The bound itself is a capacity.
	NewTimeline(ResourceVector{Cores: MaxCapacity, CacheWays: MaxCapacity, MemoryMB: MaxCapacity, BandwidthMBps: MaxCapacity})
}

// TestSetCapacityValidation: SetCapacity refuses what NewTimeline
// refuses, and a capacity that would declare memory or bandwidth the
// node did not, or stop declaring one it did — the profile tracks
// exactly the declared dimensions.
func TestSetCapacityValidation(t *testing.T) {
	tl := NewTimeline(ResourceVector{Cores: 4, CacheWays: 16, MemoryMB: 128})
	for _, cap := range []ResourceVector{{}, {Cores: MaxCapacity + 1, CacheWays: 16, MemoryMB: 128},
		{Cores: 4, CacheWays: 16}, {Cores: 4, CacheWays: 16, MemoryMB: 128, BandwidthMBps: 100}} {
		mustPanic(t, fmt.Sprintf("SetCapacity(%v)", cap), func() { tl.SetCapacity(cap, 0) })
	}
	if ev := tl.SetCapacity(ResourceVector{Cores: 2, CacheWays: MaxCapacity, MemoryMB: 64}, 0); len(ev) != 0 {
		t.Errorf("an empty timeline evicted %+v", ev)
	}
}

// TestShapeIsAFunctionOfContents: both treaps hash their keys for
// priorities, so the same reservations give the same trees whatever
// order they were inserted in, and a restored LAC's timeline has its
// original's shape.
func TestShapeIsAFunctionOfContents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rs []Reservation
	for id := 1; id <= 64; id++ {
		start := int64(rng.Intn(40)) * 100
		rs = append(rs, Reservation{ID: id, JobID: id, Vec: ResourceVector{Cores: 1, CacheWays: 1},
			Start: start, End: start + int64(1+rng.Intn(8))*100})
	}
	big := ResourceVector{Cores: 1000, CacheWays: 1000}
	a, b := NewTimeline(big), NewTimeline(big)
	for i := range rs {
		a.insert(rs[i])
		b.insert(rs[len(rs)-1-i])
	}
	// Churn b: drop and re-insert a third of it.
	for i := 0; i < len(rs); i += 3 {
		b.Release(rs[i].ID)
	}
	for i := 0; i < len(rs); i += 3 {
		b.insert(rs[i])
	}
	if sa, sb := profShape(a.prof.root), profShape(b.prof.root); sa != sb {
		t.Errorf("profile shapes differ:\n%s\n%s", sa, sb)
	}
	if sa, sb := resShape(a.idx.root), resShape(b.idx.root); sa != sb {
		t.Errorf("index shapes differ:\n%s\n%s", sa, sb)
	}

	l := NewLAC(big)
	for _, r := range rs {
		l.Admit(Request{JobID: r.ID, Target: RUM{Resources: r.Vec, MaxWallClock: r.End - r.Start}, Mode: Strict(), Arrival: r.Start})
	}
	var snap bytes.Buffer
	if err := l.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	c, err := RestoreLAC(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sc := profShape(l.timeline.prof.root), profShape(c.timeline.prof.root); sa != sc {
		t.Errorf("restored profile shape differs:\n%s\n%s", sa, sc)
	}
	if sa, sc := resShape(l.timeline.idx.root), resShape(c.timeline.idx.root); sa != sc {
		t.Errorf("restored index shape differs:\n%s\n%s", sa, sc)
	}
}

// profShape and resShape render a treap as nested (left key right).
func profShape(n *profNode) string {
	if n == nil {
		return "."
	}
	return fmt.Sprintf("(%s %d %s)", profShape(n.left), n.key, profShape(n.right))
}

func resShape(n *resNode) string {
	if n == nil {
		return "."
	}
	return fmt.Sprintf("(%s %d %s)", resShape(n.left), n.res.ID, resShape(n.right))
}

func TestTimelineNeverOverCapacity(t *testing.T) {
	// Property: placing reservations only via EarliestFit/LatestFit can
	// never drive usage over capacity at any sampled instant.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline(nodeCap())
		var ends []int64
		for i := 0; i < int(n%24); i++ {
			vec := ResourceVector{Cores: 1 + rng.Intn(2), CacheWays: 1 + rng.Intn(8)}
			now := int64(rng.Intn(500))
			dur := int64(1 + rng.Intn(400))
			if rng.Intn(2) == 0 {
				if s, ok := tl.EarliestFit(vec, now, dur, 0); ok {
					tl.Reserve(i, vec, s, dur)
					ends = append(ends, s+dur)
				}
			} else {
				dl := now + dur + int64(rng.Intn(1000))
				if s, ok := tl.LatestFit(vec, now, dur, dl); ok {
					tl.Reserve(i, vec, s, dur)
					ends = append(ends, s+dur)
				}
			}
		}
		for x := int64(0); x < 2000; x += 37 {
			if !tl.UsageAt(x).Fits(tl.Capacity()) {
				return false
			}
		}
		_ = ends
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAvailabilityProfile(t *testing.T) {
	tl := NewTimeline(nodeCap())
	med := PresetMedium()
	tl.Reserve(1, med, 0, 1000)
	tl.Reserve(2, med, 500, 1000)
	steps := tl.Availability(0, 2000)
	if len(steps) != 4 {
		t.Fatalf("steps = %d, want 4: %+v", len(steps), steps)
	}
	want := []AvailabilityStep{
		{Start: 0, End: 500, Free: ResourceVector{Cores: 3, CacheWays: 9}},
		{Start: 500, End: 1000, Free: ResourceVector{Cores: 2, CacheWays: 2}},
		{Start: 1000, End: 1500, Free: ResourceVector{Cores: 3, CacheWays: 9}},
		{Start: 1500, End: 2000, Free: ResourceVector{Cores: 4, CacheWays: 16}},
	}
	for i, w := range want {
		if steps[i] != w {
			t.Errorf("step %d = %+v, want %+v", i, steps[i], w)
		}
	}
	if tl.Availability(10, 10) != nil {
		t.Error("empty window should yield nil")
	}
	// The profile's segments tile the window exactly.
	steps = tl.Availability(100, 1900)
	for i := 1; i < len(steps); i++ {
		if steps[i].Start != steps[i-1].End {
			t.Error("profile has gaps")
		}
	}
	if steps[0].Start != 100 || steps[len(steps)-1].End != 1900 {
		t.Error("profile does not span the window")
	}
}

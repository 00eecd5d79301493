package qos

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func medRUM(arrival, tw int64, deadlineFactor float64) RUM {
	r := RUM{Resources: PresetMedium(), MaxWallClock: tw}
	if deadlineFactor > 0 {
		r.Deadline = arrival + int64(float64(tw)*deadlineFactor)
	}
	return r
}

func TestLACRejectsNonConvertibleTargets(t *testing.T) {
	// The framework's central claim (§3.2): OPM/RPM targets cannot pass
	// admission control because supply vs demand cannot be compared.
	l := NewLAC(nodeCap())
	for _, tgt := range []Target{OPM{IPC: 0.25}, RPM{MissRate: 0.05}} {
		d := l.Admit(Request{JobID: 1, Target: tgt, Mode: Strict()})
		if d.Accepted {
			t.Errorf("%T target was accepted", tgt)
		}
		if !strings.Contains(d.Reason, "not convertible") {
			t.Errorf("%T rejection reason = %q", tgt, d.Reason)
		}
	}
}

func TestLACStrictAdmission(t *testing.T) {
	l := NewLAC(nodeCap())
	tw := int64(1000)
	// First two medium jobs start immediately; the third waits for a
	// slot; a third job with a tight deadline is rejected.
	d1 := l.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	d2 := l.Admit(Request{JobID: 2, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	if !d1.Accepted || !d2.Accepted || d1.Start != 0 || d2.Start != 0 {
		t.Fatalf("first two jobs should start at 0: %+v %+v", d1, d2)
	}
	dTight := l.Admit(Request{JobID: 3, Target: medRUM(0, tw, 1.05), Mode: Strict(), Arrival: 0})
	if dTight.Accepted {
		t.Fatal("third tight-deadline job must be rejected (no slot before td)")
	}
	dMod := l.Admit(Request{JobID: 4, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	if !dMod.Accepted || dMod.Start != tw {
		t.Fatalf("third job with slack should start at %d: %+v", tw, dMod)
	}
	_, admits, rejects := l.Counters()
	if admits != 3 || rejects != 1 {
		t.Errorf("admits/rejects = %d/%d, want 3/1", admits, rejects)
	}
}

// TestUndeclaredDimensionNeverBinds: a node that declares no memory
// takes any request's memory field, however large — Fits' rule — so
// two Strict jobs of {1 core, 7 ways, math.MaxInt MB} both start at 0
// on {4 cores, 16 ways}. While the profile summed undeclared dimensions
// against a finite sentinel, the first one's memory blocked the second
// until 1000.
func TestUndeclaredDimensionNeverBinds(t *testing.T) {
	l := NewLAC(nodeCap())
	for job := 1; job <= 2; job++ {
		rum := medRUM(0, 1000, 3)
		rum.Resources.MemoryMB = math.MaxInt
		rum.Resources.BandwidthMBps = math.MaxInt
		if d := l.Admit(Request{JobID: job, Target: rum, Mode: Strict()}); !d.Accepted || d.Start != 0 {
			t.Fatalf("job %d: %+v, want accepted at 0", job, d)
		}
	}
	if u := l.Timeline().UsageAt(0); u != (ResourceVector{Cores: 2, CacheWays: 14}) {
		t.Errorf("usage at 0 = %v, want the declared dimensions only", u)
	}
}

func TestLACElasticReservesLonger(t *testing.T) {
	l := NewLAC(nodeCap())
	tw := int64(1000)
	d := l.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Elastic(0.05), Arrival: 0})
	if !d.Accepted {
		t.Fatal(d.Reason)
	}
	r, ok := l.Timeline().Get(d.ReservationID)
	if !ok {
		t.Fatal("reservation missing")
	}
	if r.End-r.Start != 1050 {
		t.Errorf("elastic reservation length = %d, want tw·1.05 = 1050", r.End-r.Start)
	}
	// Elastic without a timeslot resource is rejected.
	d2 := l.Admit(Request{JobID: 2, Target: RUM{Resources: PresetMedium()}, Mode: Elastic(0.05)})
	if d2.Accepted {
		t.Error("elastic without timeslot must be rejected")
	}
}

func TestLACOpportunisticAdmission(t *testing.T) {
	l := NewLAC(nodeCap())
	tw := int64(1000)
	// Two reserved jobs leave two cores free: up to 2·OpportunisticPerCore
	// opportunistic jobs.
	l.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	l.Admit(Request{JobID: 2, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	for i := 0; i < 2*OpportunisticPerCore; i++ {
		d := l.Admit(Request{JobID: 10 + i, Target: RUM{Resources: PresetMedium(), MaxWallClock: tw}, Mode: Opportunistic(), Arrival: 0})
		if !d.Accepted {
			t.Fatalf("opportunistic job %d rejected: %s", i, d.Reason)
		}
	}
	d := l.Admit(Request{JobID: 20, Target: RUM{Resources: PresetMedium(), MaxWallClock: tw}, Mode: Opportunistic(), Arrival: 0})
	if d.Accepted {
		t.Error("opportunistic pin cap must reject the job past it")
	}
	// Completion frees a pin slot.
	l.Complete(10, Opportunistic(), 500)
	d = l.Admit(Request{JobID: 21, Target: RUM{Resources: PresetMedium(), MaxWallClock: tw}, Mode: Opportunistic(), Arrival: 500})
	if !d.Accepted {
		t.Errorf("opportunistic job after completion rejected: %s", d.Reason)
	}
}

func TestLACOpportunisticNeedsSpareCore(t *testing.T) {
	l := NewLAC(ResourceVector{Cores: 1, CacheWays: 16})
	tw := int64(1000)
	l.Admit(Request{JobID: 1, Target: RUM{Resources: ResourceVector{Cores: 1, CacheWays: 7}, MaxWallClock: tw, Deadline: 3 * tw}, Mode: Strict(), Arrival: 0})
	d := l.Admit(Request{JobID: 2, Target: RUM{Resources: PresetSmall(), MaxWallClock: tw}, Mode: Opportunistic(), Arrival: 0})
	if d.Accepted {
		t.Error("opportunistic job with no unreserved core must be rejected")
	}
}

func TestLACAutoDowngrade(t *testing.T) {
	l := NewLAC(nodeCap(), WithAutoDowngrade())
	tw := int64(1000)
	// Moderate deadline (2·tw): downgradable; the reservation is placed
	// as late as possible: [td−tw, td].
	d := l.Admit(Request{JobID: 1, Target: medRUM(0, tw, 2), Mode: Strict(), Arrival: 0})
	if !d.Accepted || !d.AutoDowngraded {
		t.Fatalf("expected auto downgrade: %+v", d)
	}
	if d.SwitchBack != 1000 || d.Start != 1000 {
		t.Errorf("switch-back = %d, want td−tw = 1000", d.SwitchBack)
	}
	r, _ := l.Timeline().Get(d.ReservationID)
	if r.Start != 1000 || r.End != 2000 {
		t.Errorf("reservation = [%d,%d), want [1000,2000)", r.Start, r.End)
	}
	// Tight deadline (1.05·tw has slack 0.05·tw > 0): still downgradable
	// but with a tiny opportunistic window.
	d2 := l.Admit(Request{JobID: 2, Target: medRUM(0, tw, 1.05), Mode: Strict(), Arrival: 0})
	if !d2.Accepted || !d2.AutoDowngraded {
		t.Fatalf("tight job: %+v", d2)
	}
	if d2.SwitchBack != 50 {
		t.Errorf("tight switch-back = %d, want 50", d2.SwitchBack)
	}
	// Early completion reclaims the reservation (§3.4).
	l.Complete(1, Strict(), 500)
	d3 := l.Admit(Request{JobID: 3, Target: medRUM(500, tw, 3), Mode: Strict(), Arrival: 500})
	if !d3.Accepted {
		t.Fatalf("job after reclaim rejected: %s", d3.Reason)
	}
}

func TestLACNoTimeslotHoldsForever(t *testing.T) {
	l := NewLAC(nodeCap())
	d := l.Admit(Request{JobID: 1, Target: RUM{Resources: PresetMedium()}, Mode: Strict(), Arrival: 0})
	if !d.Accepted {
		t.Fatal(d.Reason)
	}
	r, _ := l.Timeline().Get(d.ReservationID)
	if r.End-r.Start < int64(1)<<50 {
		t.Errorf("no-timeslot reservation should be effectively unbounded, got %d", r.End-r.Start)
	}
}

func TestLACOverheadModel(t *testing.T) {
	l := NewLAC(nodeCap())
	tw := int64(10_000_000)
	for i := 0; i < 20; i++ {
		l.Admit(Request{JobID: i, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	}
	if l.OverheadCycles() == 0 {
		t.Fatal("no overhead accrued")
	}
	// §7.5: occupancy is below 1% of any realistic workload wall-clock.
	if occ := l.Occupancy(40 * tw); occ >= 0.01 {
		t.Errorf("LAC occupancy = %v, want < 1%%", occ)
	}
	if l.Occupancy(0) != 0 {
		t.Error("occupancy of zero wall-clock must be 0")
	}
}

func TestLACDemandExceedingCapacity(t *testing.T) {
	l := NewLAC(nodeCap())
	d := l.Admit(Request{JobID: 1, Target: RUM{Resources: ResourceVector{Cores: 8, CacheWays: 4}, MaxWallClock: 10}, Mode: Strict()})
	if d.Accepted {
		t.Error("demand beyond node capacity must be rejected")
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	l := NewLAC(nodeCap())
	tw := int64(1000)
	d := l.Probe(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	if !d.Accepted {
		t.Fatal(d.Reason)
	}
	if l.Timeline().Len() != 0 {
		t.Error("probe must not reserve")
	}
	_, admits, _ := l.Counters()
	if admits != 0 {
		t.Error("probe must not count as admit")
	}
}

func TestGACPicksEarliestNode(t *testing.T) {
	a := NewLAC(nodeCap())
	b := NewLAC(nodeCap())
	tw := int64(1000)
	// Load node a with two jobs so a third there starts at tw.
	a.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	a.Admit(Request{JobID: 2, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	g := NewGAC(a, b)
	node, d := g.Submit(Request{JobID: 3, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	if node != 1 {
		t.Errorf("GAC picked node %d, want 1 (idle node)", node)
	}
	if !d.Accepted || d.Start != 0 {
		t.Errorf("decision = %+v", d)
	}
	if b.Timeline().Len() != 1 {
		t.Error("admission not committed on chosen node")
	}
}

func TestGACRejectsWhenNoNodeFits(t *testing.T) {
	a := NewLAC(nodeCap())
	tw := int64(1000)
	a.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	a.Admit(Request{JobID: 2, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	g := NewGAC(a)
	node, d := g.Submit(Request{JobID: 3, Target: medRUM(0, tw, 1.05), Mode: Strict(), Arrival: 0})
	if node != -1 || d.Accepted {
		t.Errorf("expected global rejection, got node %d %+v", node, d)
	}
}

func TestGACNegotiation(t *testing.T) {
	a := NewLAC(nodeCap())
	tw := int64(1000)
	a.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	a.Admit(Request{JobID: 2, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	g := NewGAC(a)
	// Strict with a tight deadline fails; negotiation lands on
	// Opportunistic (two cores remain unreserved).
	node, mode, d := g.SubmitOrNegotiate(
		Request{JobID: 3, Target: medRUM(0, tw, 1.05), Mode: Strict(), Arrival: 0}, 0.05)
	if node != 0 || !d.Accepted {
		t.Fatalf("negotiation failed: node=%d %+v", node, d)
	}
	if mode.Kind != KindOpportunistic {
		t.Errorf("negotiated mode = %v, want Opportunistic", mode)
	}
}

func TestGACValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGAC with no nodes did not panic")
		}
	}()
	NewGAC()
}

// TestCompleteReleasesEveryReservation holds LAC.Complete to the naive
// reference doing Release then Prune: jobs 1–5 complete at one instant,
// their reservations starting before, at and after it and ending before,
// at and after it, and another job's overrun hold (ended before now,
// never released) must still be pruned.
func TestCompleteReleasesEveryReservation(t *testing.T) {
	capacity := ResourceVector{Cores: 16, CacheWays: 32}
	l := NewLAC(capacity)
	naive := newNaiveTimeline(capacity)
	const now = 500
	one := ResourceVector{Cores: 1, CacheWays: 2}
	reserve := func(job int, start, end int64) {
		id := l.reserve(job, one, start, end-start)
		if nid := naive.Reserve(job, one, start, end-start); nid != id {
			t.Fatalf("reservation id %d != naive %d", id, nid)
		}
	}
	reserve(1, 100, 300) // before, before
	reserve(2, 200, now) // before, at
	reserve(3, 300, 700) // before, after
	reserve(4, now, 800) // at, after
	reserve(5, 600, 900) // after, after
	reserve(6, 0, 400)   // another job's overrun hold
	reserve(7, 450, 1000)
	reserve(8, now, 650)

	for job := 1; job <= 5; job++ {
		l.Complete(job, Strict(), now)
		naive.Release(job) // job i holds reservation i
		naive.Prune(now)
	}

	fr, nr := l.Timeline().Reservations(), naive.Reservations()
	if len(fr) != len(nr) || l.Timeline().Len() != naive.Len() {
		t.Fatalf("after Complete: %+v (Len %d), naive %+v (Len %d)",
			fr, l.Timeline().Len(), nr, naive.Len())
	}
	for i := range fr {
		if fr[i] != nr[i] {
			t.Fatalf("Reservations[%d] = %+v, naive %+v", i, fr[i], nr[i])
		}
	}
	if len(fr) != 2 || fr[0].JobID != 7 || fr[1].JobID != 8 {
		t.Fatalf("only jobs 7 and 8 should hold reservations, got %+v", fr)
	}
	fa, na := l.Timeline().Availability(-10, 1100), naive.Availability(-10, 1100)
	if len(fa) != len(na) {
		t.Fatalf("Availability %+v, naive %+v", fa, na)
	}
	for i := range fa {
		if fa[i] != na[i] {
			t.Fatalf("Availability[%d] = %+v, naive %+v", i, fa[i], na[i])
		}
	}
	for job := 1; job <= 6; job++ {
		if _, held := l.resByJob[job]; held != (job == 6) {
			t.Errorf("job %d: reservation entry held %v after the completions", job, held)
		}
	}
}

// TestReserveRefusesASecondReservation: a job holds one reservation per
// node, so reserving for a job that holds one is a caller's fault and
// panics, naming the job (the daemon answers 409 to a duplicate id
// before it gets here). Once the job completes, its id is free again.
func TestReserveRefusesASecondReservation(t *testing.T) {
	l := NewLAC(ResourceVector{Cores: 4, CacheWays: 16})
	one := ResourceVector{Cores: 1, CacheWays: 1}
	l.reserve(7, one, 0, 100)
	l.Complete(7, Strict(), 50)
	l.reserve(7, one, 100, 100)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "job 7 ") {
			t.Errorf("second reservation for job 7: recovered %v, want a panic naming the job", r)
		}
	}()
	l.reserve(7, one, 300, 100)
}

// TestSetCapacityDropsOnlyTheEvictedReservation: SetCapacity forgets a
// job's reservation id only when the evicted reservation is that one. A
// hold placed on the timeline outside admission can carry an admitted
// job's id; evicting it must leave the job's own reservation where
// Complete releases it.
func TestSetCapacityDropsOnlyTheEvictedReservation(t *testing.T) {
	l := NewLAC(ResourceVector{Cores: 4, CacheWays: 16})
	rum := RUM{Resources: ResourceVector{Cores: 1, CacheWays: 4}, MaxWallClock: 100}
	d := l.Admit(Request{JobID: 7, Target: rum, Mode: Strict()})
	if !d.Accepted {
		t.Fatalf("Admit = %+v", d)
	}
	// The later of two holds starting together is the one evicted.
	hold := l.Timeline().Reserve(7, ResourceVector{Cores: 2, CacheWays: 8}, 0, 100)
	if ev := l.SetCapacity(ResourceVector{Cores: 2, CacheWays: 16}, 0); len(ev) != 1 || ev[0].ID != hold {
		t.Fatalf("SetCapacity evicted %+v, want the hold %d alone", ev, hold)
	}
	l.Complete(7, Strict(), 50)
	if n := l.Timeline().Len(); n != 0 {
		t.Fatalf("%d reservations left after job 7 completed: %+v", n, l.Timeline().Reservations())
	}
}

// TestCompleteAllocatesNothing pins that a completion only frees: on a
// warm timeline, releasing a job whose reservation straddles the
// completion instant allocates no boundary node, no map entry and no
// scratch.
func TestCompleteAllocatesNothing(t *testing.T) {
	const runs = 100
	l := NewLAC(ResourceVector{Cores: 2 * runs, CacheWays: 2 * runs})
	one := ResourceVector{Cores: 1, CacheWays: 1}
	for job := 0; job <= runs; job++ {
		l.reserve(job, one, int64(job), 1000)
	}
	job := 0
	allocs := testing.AllocsPerRun(runs, func() {
		// now sits strictly inside the job's own [job, job+1000) and on
		// no other reservation's boundary.
		l.Complete(job, Strict(), int64(job)+500)
		job++
	})
	if allocs != 0 {
		t.Fatalf("Complete allocates %.1f objects per call, want 0", allocs)
	}
	if l.Timeline().Len() != 0 {
		t.Fatalf("%d reservations left after completing every job", l.Timeline().Len())
	}
}

// TestProfNodeSize pins a usage-profile boundary node to the 80-byte
// size class: a fleet allocates one per reservation edge. It was 160 B
// while the node stored its own delta, which its sum and its children's
// already determine, and 128 B while its aggregates were int64 in all
// four dimensions and it stored a priority its key now hashes to.
func TestProfNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(profNode{}); s > 80 {
		t.Fatalf("profNode is %d B, want ≤ 80", s)
	}
}

// TestResNodeSize pins a reservation node to the 96-byte size class:
// a fleet allocates one per reservation. It was 112 B while it stored
// a priority its id now hashes to and a finite-end aggregate for
// Horizon, which walks instead.
func TestResNodeSize(t *testing.T) {
	if s := unsafe.Sizeof(resNode{}); s > 96 {
		t.Fatalf("resNode is %d B, want ≤ 96", s)
	}
}

// TestTimelineAndLACSize pins the two structs every node of a fleet owns
// one of: a field added to either is a decision, not an accident. The
// Timeline is 64 B, the 64-byte class, since its treaps hash their
// keys for priorities (72 B in the 80-byte class with a priority
// stream). It was 72 B with a live count where it kept an id→node map
// beside the LAC's job map, 104 B with a Render buffer and a priority
// stream per treap, then 128 B with a one-entry fit memo (56 B), which
// went once a node's learned earliest start decided nearly every
// rejection before it reached the LAC (DESIGN §7.5). The LAC is 96 B
// since the modeled probe costs became constants (112 B as two fields).
func TestTimelineAndLACSize(t *testing.T) {
	if s := unsafe.Sizeof(Timeline{}); s > 64 {
		t.Errorf("Timeline is %d B, want ≤ 64", s)
	}
	if s := unsafe.Sizeof(LAC{}); s > 96 {
		t.Errorf("LAC is %d B, want ≤ 96", s)
	}
}

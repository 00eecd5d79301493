package sim

import (
	"math"
	"testing"

	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

// TestRejectBoundMatchesAdmission pins the edges of the start a node
// learns from its own rejections (admitNext, DESIGN §11.6) that
// TestFastPathsMatchReference's grid rarely meets, each on a twin pair
// of hand-built nodes, one of them the reference engine, which admits
// every arrival: the deadline exactly at the learned start, a gen move
// that frees the start, and headroom under auto-downgrade.
func TestRejectBoundMatchesAdmission(t *testing.T) {
	t.Run("threshold", testBoundThreshold)
	t.Run("gen", testBoundGen)
	t.Run("autodown-headroom", testBoundAutoDownHeadroom)
}

// boundTwins builds two nodes of cfg whose Poisson arrivals the test
// stamps itself (arrive): one learns bounds, the other is the reference
// engine, which admits every arrival. Their own arrival stream is so sparse that its next stamp
// always lies past the one the test sets, so each arrive submits one
// arrival.
func boundTwins(t *testing.T, cfg Config) (bound, admitAll *Runner) {
	t.Helper()
	cfg.ProbesPerTw = 1e-6
	for i, reference := range []bool{false, true} {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.reference = reference
		r.src = &arrivalSource{
			dlmix:    workload.NewDeadlineMix(r.seed),
			arrivals: workload.NewArrivals(r.seed+1, r.cfg.ProbesPerTw, r.refTW),
		}
		if i == 0 {
			bound = r
		} else {
			admitAll = r
		}
	}
	return bound, admitAll
}

// arrive submits one Poisson arrival stamped ta on both twins, fails
// the test unless they decide and bill alike, and returns the decision.
func arrive(t *testing.T, bound, admitAll *Runner, ta int64) bool {
	t.Helper()
	var got [2]bool
	for i, r := range []*Runner{bound, admitAll} {
		r.src.nextArr = ta
		_, ok, accepted := r.admitNext(ta + 1)
		if !ok {
			t.Fatalf("arrival at %d not submitted", ta)
		}
		got[i] = accepted
	}
	if got[0] != got[1] {
		t.Fatalf("arrival at %d: accepted %v with the bound, %v admitting it", ta, got[0], got[1])
	}
	bp, ba, br := bound.lac.Counters()
	ap, aa, ar := admitAll.lac.Counters()
	if [3]int64{bp, ba, br} != [3]int64{ap, aa, ar} || bound.lac.OverheadCycles() != admitAll.lac.OverheadCycles() {
		t.Fatalf("arrival at %d: LAC counters %v/%d with the bound, %v/%d admitting it",
			ta, [3]int64{bp, ba, br}, bound.lac.OverheadCycles(), [3]int64{ap, aa, ar}, admitAll.lac.OverheadCycles())
	}
	return got[0]
}

// fillAtZero submits arrivals at cycle 0 until one is rejected, and
// returns the start the bound learned from it and the slot's tw.
func fillAtZero(t *testing.T, bound, admitAll *Runner) (start, tw int64) {
	t.Helper()
	for arrive(t, bound, admitAll, 0) {
		if bound.acceptedN > 16 {
			t.Fatal("node never fills")
		}
	}
	if s := bound.src; s.boundGen == 0 || s.boundStart <= 0 || s.boundStart == math.MaxInt64 {
		t.Fatalf("rejection learned gen %d, start %d; want a finite start", s.boundGen, s.boundStart)
	}
	return bound.src.boundStart, bound.tmpl[bound.acceptedN%len(bound.cfg.Workload.Jobs)].tw
}

// testBoundThreshold: with a fixed deadline factor f, an All-Strict
// arrival at ta has td − dur = ta + ⌊f·tw⌋ − tw. When that is one cycle
// before the learned start S the bound decides the rejection, and no
// request reaches the LAC (the scratch RUM keeps the learning Peek's
// lifted deadline); when it is S itself the reservation fits, and the
// arrival must reach the LAC and be accepted.
func testBoundThreshold(t *testing.T) {
	cfg := DefaultConfig(AllStrict, workload.Single("bzip2"))
	cfg.DeadlineFactor = 1.5
	bound, admitAll := boundTwins(t, cfg)
	S, tw := fillAtZero(t, bound, admitAll)
	at := S + tw - int64(1.5*float64(tw)) // td − dur == S
	if at < 1 {
		t.Fatalf("learned start %d leaves no arrival with td − dur = S (tw %d)", S, tw)
	}
	if arrive(t, bound, admitAll, at-1) {
		t.Error("td − dur = S−1: accepted")
	}
	if bound.rum.Deadline != 0 {
		t.Error("td − dur = S−1: the arrival reached the LAC; the learned start should have decided it")
	}
	if !arrive(t, bound, admitAll, at) {
		t.Error("td − dur = S: rejected, but the reservation fits at S")
	}
	if bound.src.boundGen != 0 {
		t.Error("an acceptance left the slot's bound standing")
	}
}

// testBoundGen: a completion frees the capacity the learned start was
// measured against, so the bound must fall with the gen move — an
// arrival at 0 that the stale start would reject fits at once.
func testBoundGen(t *testing.T) {
	cfg := DefaultConfig(AllStrict, workload.Single("bzip2"))
	cfg.DeadlineFactor = 1.5
	bound, admitAll := boundTwins(t, cfg)
	S, tw := fillAtZero(t, bound, admitAll)
	if int64(1.5*float64(tw))-tw >= S {
		t.Fatalf("learned start %d does not reject a new arrival at 0 (tw %d)", S, tw)
	}
	for _, r := range []*Runner{bound, admitAll} {
		j := r.accepted[0]
		r.lac.Complete(j.ID, j.Mode, 0)
	}
	if !arrive(t, bound, admitAll, 0) {
		t.Error("an arrival at 0 after a completion freed its slot was rejected")
	}
}

// testBoundAutoDownHeadroom: an auto-downgrading LAC with headroom tests
// a Strict job's latest-fit slot at the bare vector, while the start
// learned with the deadline lifted is the headroom-inflated vector's.
// Here the bare 7 ways are free from A and the 9 the headroom asks for
// only from B, so a start learned at B would reject an arrival at A that
// the LAC accepts.
func testBoundAutoDownHeadroom(t *testing.T) {
	cfg := DefaultConfig(AllStrictAutoDown, workload.Single("bzip2"))
	cfg.DeadlineFactor = 3
	bound, admitAll := boundTwins(t, cfg)
	tw := bound.tmpl[0].tw
	A, B := 4*tw, 20*tw
	hold := func(r *Runner, id, ways int, at, dur int64) {
		rum := qos.RUM{Resources: qos.ResourceVector{Cores: 1, CacheWays: ways}, MaxWallClock: dur}
		if d := r.lac.Admit(qos.Request{JobID: id, Target: &rum, Mode: qos.Strict(), Arrival: at}); !d.Accepted || d.Start != at {
			t.Fatalf("hold of %d ways at %d: %+v", ways, at, d)
		}
	}
	for _, r := range []*Runner{bound, admitAll} {
		hold(r, 1001, cfg.L2.Ways, 0, A)
		hold(r, 1002, cfg.L2.Ways-r.reqWays, A, B-A)
		r.lac.SetHeadroom(2)
	}
	if arrive(t, bound, admitAll, 0) {
		t.Fatal("an arrival whose window the full-width hold covers was accepted")
	}
	if !arrive(t, bound, admitAll, A) {
		t.Error("an arrival with the bare vector free from its own cycle was rejected")
	}
}

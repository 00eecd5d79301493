package steal

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		slack     float64
		orig, min int
	}{{0, 7, 1}, {-0.1, 7, 1}, {1.5, 7, 1}, {0.05, 7, 0}, {0.05, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v,%d,%d) did not panic", tc.slack, tc.orig, tc.min)
				}
			}()
			New(tc.slack, tc.orig, tc.min)
		}()
	}
}

func TestStealsOneWayPerInterval(t *testing.T) {
	c := New(0.05, 7, 1)
	// No excess misses yet: each interval steals one way down to min.
	for want := 6; want >= 1; want-- {
		a := c.OnInterval(1000, 1000, false)
		if a != StealOne {
			t.Fatalf("action = %v, want StealOne", a)
		}
		if c.Ways() != want {
			t.Fatalf("ways = %d, want %d", c.Ways(), want)
		}
	}
	// At the floor, it holds.
	if a := c.OnInterval(1000, 1000, false); a != Hold {
		t.Errorf("action at floor = %v, want Hold", a)
	}
	if c.Ways() != 1 || c.Stolen() != 6 {
		t.Errorf("ways/stolen = %d/%d, want 1/6", c.Ways(), c.Stolen())
	}
}

func TestRollbackOnMissBound(t *testing.T) {
	c := New(0.05, 7, 1)
	actions := map[Action]int{}
	actions[c.OnInterval(1000, 1000, false)]++ // steal to 6
	actions[c.OnInterval(1020, 1000, false)]++ // 2% excess < 5%: steal to 5
	if c.Ways() != 5 {
		t.Fatalf("ways = %d, want 5", c.Ways())
	}
	// 6% excess ≥ 5%: rollback, all ways returned.
	a := c.OnInterval(1060, 1000, false)
	if a != Rollback {
		t.Fatalf("action = %v, want Rollback", a)
	}
	actions[a]++
	if c.Ways() != 7 || c.Stolen() != 0 {
		t.Errorf("after rollback ways/stolen = %d/%d, want 7/0", c.Ways(), c.Stolen())
	}
	if actions[StealOne] != 2 || actions[Rollback] != 1 {
		t.Errorf("steals/rollbacks = %d/%d, want 2/1", actions[StealOne], actions[Rollback])
	}
}

func TestFeedbackLoopResumesAfterDecay(t *testing.T) {
	// The controller is a continuous loop (Figure 8a's tracking
	// behaviour): while the cumulative excess stays at or above X it
	// holds at the original allocation, and once the excess decays under
	// X a new stealing episode begins.
	c := New(0.05, 7, 1)
	c.OnInterval(1000, 1000, false)                          // steal to 6
	if a := c.OnInterval(1100, 1000, false); a != Rollback { // 10% ≥ 5%
		t.Fatalf("action = %v, want Rollback", a)
	}
	// Still over the bound at full allocation: hold, don't re-steal.
	if a := c.OnInterval(2150, 2000, false); a != Hold { // 7.5%
		t.Errorf("action while over bound = %v, want Hold", a)
	}
	if c.Ways() != 7 {
		t.Errorf("ways = %d, want 7", c.Ways())
	}
	// Excess decayed under X: a new episode starts.
	if a := c.OnInterval(4100, 4000, false); a != StealOne { // 2.5%
		t.Errorf("action after decay = %v, want StealOne", a)
	}
	if c.Ways() != 6 {
		t.Errorf("ways = %d, want 6", c.Ways())
	}
}

func TestNoRollbackWithoutStolenWays(t *testing.T) {
	// Excess misses that are NOT attributable to stealing (nothing
	// stolen yet) must not trigger a rollback, and must not start an
	// episode either.
	c := New(0.05, 7, 1)
	if a := c.OnInterval(1100, 1000, false); a != Hold {
		t.Errorf("action = %v, want Hold (over bound, nothing stolen)", a)
	}
	if c.Ways() != 7 {
		t.Errorf("ways = %d, want 7", c.Ways())
	}
}

func TestPausePreventsStealsNotRollbacks(t *testing.T) {
	c := New(0.05, 7, 1)
	c.OnInterval(0, 0, false) // steal to 6
	if a := c.OnInterval(0, 0, true); a != Hold {
		t.Fatalf("paused action = %v, want Hold", a)
	}
	if c.Ways() != 6 {
		t.Errorf("pause must not steal or roll back: ways = %d", c.Ways())
	}
	// A needed rollback goes through even while paused.
	if a := c.OnInterval(1100, 1000, true); a != Rollback {
		t.Errorf("rollback while paused = %v, want Rollback", a)
	}
}

func TestExcessMissRatio(t *testing.T) {
	if r := ExcessMissRatio(105, 100); r != 0.05 {
		t.Errorf("ratio = %v, want 0.05", r)
	}
	if r := ExcessMissRatio(50, 0); r != 0 {
		t.Errorf("ratio with zero shadow = %v, want 0", r)
	}
	if r := ExcessMissRatio(90, 100); r != -0.1 {
		t.Errorf("negative ratio = %v, want -0.1", r)
	}
}

// TestRollbackAfterShed: shed ways leave the reservation for good, so a
// rollback returns the stolen ways only up to what it still holds.
// TestShedStopsAtTheFloor: a controller already at its minimum sheds
// nothing, whatever it is asked.
func TestShedStopsAtTheFloor(t *testing.T) {
	c := New(0.05, 1, 1)
	if shed := c.Shed(1); shed != 0 || c.Ways() != 1 {
		t.Errorf("Shed(1) at the floor = %d, ways %d; want 0, 1", shed, c.Ways())
	}
}

func TestRollbackAfterShed(t *testing.T) {
	c := New(0.05, 7, 1)
	for i := 0; i < 3; i++ {
		c.OnInterval(0, 0, false) // steal to 4
	}
	if shed := c.Shed(2); shed != 2 || c.Ways() != 4 || c.Stolen() != 1 {
		t.Fatalf("Shed(2) = %d: ways/stolen = %d/%d, want 2: 4/1", shed, c.Ways(), c.Stolen())
	}
	if a := c.OnInterval(1060, 1000, false); a != Rollback || c.Ways() != 5 || c.Stolen() != 0 {
		t.Errorf("after rollback: %v, ways/stolen = %d/%d, want Rollback, 5/0", a, c.Ways(), c.Stolen())
	}
}

func TestInvariants(t *testing.T) {
	// Property: ways always within [minWays, origWays]; Stolen() is
	// consistent; a Rollback always lands exactly at origWays.
	f := func(seed int64, steps uint8) bool {
		c := New(0.05, 7, 1)
		main, shadow := int64(0), int64(0)
		rng := seed
		for i := 0; i < int(steps); i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			shadow += 100
			main += 100 + (rng>>33)%12 // up to 12% per-interval drift
			pause := (rng>>17)%5 == 0
			act := c.OnInterval(main, shadow, pause)
			if c.Ways() < 1 || c.Ways() > 7 {
				return false
			}
			if c.Stolen() != 7-c.Ways() {
				return false
			}
			if act == Rollback && c.Ways() != 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

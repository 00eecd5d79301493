package qos

import "testing"

// TestPlacementPolicies pins the LAC's two placements on the same occupied
// timeline: by default (FCFS) a reservation starts as soon as capacity
// allows; WithAutoDowngrade a Strict job procrastinates to the last slot
// before the deadline, falls back to earliest-fit for a job without one,
// and both refuse an infeasible window.
func TestPlacementPolicies(t *testing.T) {
	for _, c := range []struct {
		name      string
		autoDown  bool
		deadline  int64
		wantStart int64
		wantOK    bool
	}{
		{"fcfs", false, 1000, 100, true},
		{"fcfs no deadline", false, 0, 100, true},
		{"fcfs infeasible", false, 90, 0, false},
		{"autodown", true, 1000, 950, true},
		// No latest slot exists on an unbounded horizon.
		{"autodown no deadline", true, 0, 100, true},
		{"autodown infeasible", true, 90, 0, false},
	} {
		var opts []LACOption
		if c.autoDown {
			opts = append(opts, WithAutoDowngrade())
		}
		l := NewLAC(ResourceVector{Cores: 4, CacheWays: 16}, opts...)
		// Occupy [0,100) heavily enough that an 8-way request can't fit.
		l.Timeline().Reserve(1, ResourceVector{Cores: 4, CacheWays: 12}, 0, 100)
		rum := RUM{Resources: ResourceVector{Cores: 1, CacheWays: 8}, MaxWallClock: 50, Deadline: c.deadline}
		if d := l.Peek(Request{JobID: 2, Target: &rum, Mode: Strict()}); d.Accepted != c.wantOK || d.Start != c.wantStart {
			t.Errorf("%s: Peek = %+v, want accepted=%v at %d", c.name, d, c.wantOK, c.wantStart)
		}
		if l.PlacesEarliestFit() == c.autoDown {
			t.Errorf("%s: PlacesEarliestFit = %v", c.name, !c.autoDown)
		}
	}
}

package qos

import "testing"

// TestPlacementPolicies pins the LAC's two placements on the same occupied
// timeline: by default (FCFS) a reservation starts as soon as capacity
// allows; WithLatestFit it procrastinates to the last slot before the
// deadline, falls back to earliest-fit for a job without one, and both
// refuse an infeasible window.
func TestPlacementPolicies(t *testing.T) {
	for _, c := range []struct {
		name      string
		latest    bool
		deadline  int64
		wantStart int64
		wantOK    bool
	}{
		{"fcfs", false, 1000, 100, true},
		{"fcfs no deadline", false, 0, 100, true},
		{"fcfs infeasible", false, 90, 0, false},
		{"latest", true, 1000, 950, true},
		// No "latest" slot exists on an unbounded horizon.
		{"latest no deadline", true, 0, 100, true},
		{"latest infeasible", true, 90, 0, false},
	} {
		var opts []LACOption
		if c.latest {
			opts = append(opts, WithLatestFit())
		}
		l := NewLAC(ResourceVector{Cores: 4, CacheWays: 16}, opts...)
		// Occupy [0,100) heavily enough that an 8-way request can't fit.
		l.Timeline().Reserve(1, ResourceVector{Cores: 4, CacheWays: 12}, 0, 100)
		rum := RUM{Resources: ResourceVector{Cores: 1, CacheWays: 8}, MaxWallClock: 50, Deadline: c.deadline}
		if d := l.Peek(Request{JobID: 2, Target: &rum, Mode: Strict()}); d.Accepted != c.wantOK || d.Start != c.wantStart {
			t.Errorf("%s: Peek = %+v, want accepted=%v at %d", c.name, d, c.wantOK, c.wantStart)
		}
		if l.PlacesEarliestFit() == c.latest {
			t.Errorf("%s: PlacesEarliestFit = %v", c.name, !c.latest)
		}
	}
}

// TestLACPlacementOption checks WithLatestFit reaches admission: under
// latest-fit the first reserved job of an empty LAC starts at the tail
// of its deadline window instead of its arrival.
func TestLACPlacementOption(t *testing.T) {
	rum := RUM{
		Resources:    ResourceVector{Cores: 1, CacheWays: 7},
		MaxWallClock: 1000,
		Deadline:     5000,
	}
	req := Request{JobID: 1, Target: &rum, Mode: Strict(), Arrival: 0}

	fcfs := NewLAC(ResourceVector{Cores: 4, CacheWays: 16})
	if d := fcfs.Admit(req); !d.Accepted || d.Start != 0 {
		t.Fatalf("fcfs Admit = %+v, want accepted at 0", d)
	}
	latest := NewLAC(ResourceVector{Cores: 4, CacheWays: 16}, WithLatestFit())
	if d := latest.Admit(req); !d.Accepted || d.Start != 4000 {
		t.Fatalf("latest Admit = %+v, want accepted at 4000", d)
	}
}

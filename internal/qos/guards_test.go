package qos

// The guards only an edge of the input reaches: each test runs its
// guard and fails when the guard goes.

import (
	"strings"
	"testing"
)

// TestAutoDowngradeNeedsAnOpportunisticWindow: a Strict job whose
// deadline leaves no time before its latest slot cannot be downgraded,
// however free the node is.
func TestAutoDowngradeNeedsAnOpportunisticWindow(t *testing.T) {
	l := NewLAC(nodeCap())
	d := l.AdmitAutoDowngrade(Request{JobID: 1, Target: medRUM(0, 1000, 1), Mode: Strict()})
	if d.Accepted || !strings.Contains(d.Reason, "no opportunistic window") {
		t.Errorf("downgrade with deadline = tw: %+v, want a no-window reject", d)
	}
}

// TestOpportunisticPinsFull: a LAC whose every core holds
// OpportunisticPerCore opportunistic jobs has no earliest opportunistic
// start.
func TestOpportunisticPinsFull(t *testing.T) {
	l := NewLAC(nodeCap())
	for i := 0; i < nodeCap().Cores*OpportunisticPerCore; i++ {
		if d := l.Admit(Request{JobID: 1 + i, Target: RUM{Resources: PresetSmall()}, Mode: Opportunistic()}); !d.Accepted {
			t.Fatalf("opportunistic job %d rejected: %s", i, d.Reason)
		}
	}
	if at, ok := l.EarliestOpportunistic(0); ok {
		t.Errorf("EarliestOpportunistic with every pin taken = %d, true; want none", at)
	}
}

// convertibleOther is a convertible target that is not a RUM.
type convertibleOther struct{}

func (convertibleOther) Convertible() bool               { return true }
func (convertibleOther) Demand() (ResourceVector, error) { return PresetMedium(), nil }

// TestLACRejectsWhatItCannotPlace: a convertible target other than a RUM
// and a mode the LAC does not know are refused, each with its reason.
func TestLACRejectsWhatItCannotPlace(t *testing.T) {
	l := NewLAC(nodeCap())
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{JobID: 1, Target: convertibleOther{}, Mode: Strict()}, "must be a RUM"},
		{Request{JobID: 2, Target: medRUM(0, 1000, 3), Mode: Mode{Kind: Kind(7)}}, "unknown mode"},
	} {
		if d := l.Admit(c.req); d.Accepted || !strings.Contains(d.Reason, c.want) {
			t.Errorf("Admit(%+v) = %+v, want a reject naming %q", c.req, d, c.want)
		}
	}
}

// TestZeroLengthReservationChecksItsStart: a reservation of no duration
// still needs capacity at its start instant, as the naive timeline
// checks it.
func TestZeroLengthReservationChecksItsStart(t *testing.T) {
	tl := NewTimeline(nodeCap())
	tl.Reserve(1, nodeCap(), 0, 100)
	tl.Reserve(2, PresetMedium(), 100, 0) // free at 100
	defer func() {
		if recover() == nil {
			t.Error("a zero-length reservation at a full instant was placed")
		}
	}()
	tl.Reserve(3, PresetMedium(), 50, 0)
}

// TestRenderClampsAndSkips: a chart is at least 10 columns wide, draws a
// bandwidth row when the node has one, and no row for a dimension the
// node lacks.
func TestRenderClampsAndSkips(t *testing.T) {
	tl := NewTimeline(ResourceVector{CacheWays: 16, BandwidthMBps: 1000})
	tl.Reserve(1, ResourceVector{CacheWays: 4, BandwidthMBps: 1000}, 0, 100)
	out := tl.Render(0, 100, 3)
	if strings.Contains(out, "cores") {
		t.Errorf("a node without cores drew a cores row:\n%s", out)
	}
	if !strings.Contains(out, "bwMBs |@@@@@@@@@@|") {
		t.Errorf("want a full 10-column bandwidth row:\n%s", out)
	}
}

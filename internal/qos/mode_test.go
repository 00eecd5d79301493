package qos

import (
	"testing"
	"testing/quick"
)

func TestModeConstructors(t *testing.T) {
	if Strict().Kind != KindStrict || Strict().Slack != 0 {
		t.Error("Strict() wrong")
	}
	e := Elastic(0.05)
	if e.Kind != KindElastic || e.Slack != 0.05 {
		t.Error("Elastic(0.05) wrong")
	}
	if e.String() != "Elastic(5%)" {
		t.Errorf("Elastic string = %q", e.String())
	}
	if Opportunistic().Kind != KindOpportunistic {
		t.Error("Opportunistic() wrong")
	}
	for _, bad := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Elastic(%v) did not panic", bad)
				}
			}()
			Elastic(bad)
		}()
	}
}

func TestReservationLength(t *testing.T) {
	tw := int64(1000)
	if got := Strict().ReservationLength(tw); got != 1000 {
		t.Errorf("strict reservation = %d, want tw", got)
	}
	if got := Elastic(0.05).ReservationLength(tw); got != 1050 {
		t.Errorf("elastic(5%%) reservation = %d, want 1050", got)
	}
	if got := Opportunistic().ReservationLength(tw); got != 0 {
		t.Errorf("opportunistic reservation = %d, want 0", got)
	}
	if Strict().Reserves() != true || Opportunistic().Reserves() != false {
		t.Error("Reserves wrong")
	}
}

func TestElasticEquivalent(t *testing.T) {
	// §3.3: slack (td−ta)−tw allows Elastic(((td−ta)−tw)/tw).
	ta, tw := int64(100), int64(1000)
	// Moderate deadline: td − ta = 2·tw → X = 1.0.
	m, ok := ElasticEquivalent(ta, tw, ta+2*tw)
	if !ok || m.Kind != KindElastic {
		t.Fatalf("expected elastic downgrade, got %v ok=%v", m, ok)
	}
	if m.Slack != 1.0 {
		t.Errorf("slack = %v, want 1.0", m.Slack)
	}
	// Tight deadline: 1.05·tw → X = 0.05.
	m, ok = ElasticEquivalent(ta, tw, ta+tw+tw/20)
	if !ok || m.Slack != 0.05 {
		t.Errorf("slack = %v ok=%v, want 0.05", m.Slack, ok)
	}
	// No slack.
	if _, ok := ElasticEquivalent(ta, tw, ta+tw); ok {
		t.Error("zero slack must not allow downgrade")
	}
	// No deadline.
	if _, ok := ElasticEquivalent(ta, tw, 0); ok {
		t.Error("no deadline must not allow downgrade")
	}
	// Slack is capped at 100%.
	m, _ = ElasticEquivalent(ta, tw, ta+10*tw)
	if m.Slack != 1.0 {
		t.Errorf("slack should cap at 1.0, got %v", m.Slack)
	}
}

func TestOpportunisticWindow(t *testing.T) {
	ta, tw := int64(100), int64(1000)
	td := ta + 3*tw
	sb, ok := OpportunisticWindow(ta, tw, td)
	if !ok {
		t.Fatal("expected a window")
	}
	if sb != td-tw {
		t.Errorf("switch-back = %d, want td−tw = %d", sb, td-tw)
	}
	if _, ok := OpportunisticWindow(ta, tw, ta+tw); ok {
		t.Error("zero slack must not allow downgrade")
	}
	if _, ok := OpportunisticWindow(ta, 0, td); ok {
		t.Error("no timeslot must not allow downgrade")
	}
}

func TestOpportunisticWindowGuaranteesDeadline(t *testing.T) {
	// Property: whenever a window exists, running Strict from the
	// switch-back time completes exactly at td, never later.
	f := func(taRaw, twRaw, slackRaw uint16) bool {
		ta := int64(taRaw)
		tw := int64(twRaw) + 1
		td := ta + tw + int64(slackRaw)
		sb, ok := OpportunisticWindow(ta, tw, td)
		if !ok {
			return int64(slackRaw) == 0 // only rejected for zero slack
		}
		return sb >= ta && sb+tw == td
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterchangeable(t *testing.T) {
	ta, tw := int64(0), int64(1000)
	td := ta + 2*tw // slack = tw → ElasticEquivalent slack 1.0
	cases := []struct {
		a, b Mode
		want bool
	}{
		{Strict(), Strict(), true},
		{Strict(), Elastic(0.5), true}, // within slack
		{Strict(), Elastic(1.0), true}, // exactly the slack
		{Strict(), Opportunistic(), true},
		{Elastic(0.5), Strict(), false}, // upgrades are not downgrades
		{Opportunistic(), Strict(), false},
		{Elastic(0.5), Elastic(0.5), true},
		{Strict(), Mode{Kind: Kind(7)}, false}, // no mode the paper names
	}
	for i, tc := range cases {
		if got := Interchangeable(tc.a, tc.b, ta, tw, td); got != tc.want {
			t.Errorf("case %d: Interchangeable(%v,%v) = %v, want %v", i, tc.a, tc.b, got, tc.want)
		}
	}
	// With a tight deadline, Elastic(0.5) is no longer interchangeable.
	tdTight := ta + tw + tw/20
	if Interchangeable(Strict(), Elastic(0.5), ta, tw, tdTight) {
		t.Error("Elastic(50%) must not be allowed with 5% slack")
	}
	if !Interchangeable(Strict(), Elastic(0.05), ta, tw, tdTight) {
		t.Error("Elastic(5%) must be allowed with 5% slack")
	}
}

func TestModeStrings(t *testing.T) {
	if Strict().String() != "Strict" || Opportunistic().String() != "Opportunistic" {
		t.Error("mode names wrong")
	}
	if KindElastic.String() != "Elastic" {
		t.Error("kind name wrong")
	}
}

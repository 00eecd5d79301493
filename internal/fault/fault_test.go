package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestValidateFieldRules(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"core ok", Event{Kind: CoreFail, At: 10, Duration: 5, Core: 3}, true},
		{"core out of range", Event{Kind: CoreFail, At: 10, Core: 4}, false},
		{"core negative", Event{Kind: CoreFail, At: 10, Core: -1}, false},
		{"core with ways", Event{Kind: CoreFail, At: 10, Core: 1, Ways: 2}, false},
		{"ways ok", Event{Kind: WayFault, At: 0, Duration: 100, Ways: 4}, true},
		{"all ways dark", Event{Kind: WayFault, At: 0, Ways: 16}, false},
		{"zero ways", Event{Kind: WayFault, At: 0, Ways: 0}, false},
		{"spike ok", Event{Kind: LatencySpike, At: 7, Duration: 3, Factor: 2.5}, true},
		{"spike factor 1", Event{Kind: LatencySpike, At: 7, Factor: 1}, false},
		{"spike with core", Event{Kind: LatencySpike, At: 7, Factor: 2, Core: 1}, false},
		{"negative at", Event{Kind: CoreFail, At: -1, Core: 0}, false},
		{"negative duration", Event{Kind: CoreFail, At: 1, Duration: -2, Core: 0}, false},
		{"ways with core", Event{Kind: WayFault, At: 0, Ways: 2, Core: 1}, false},
		{"unknown kind", Event{Kind: Kind(9), At: 0}, false},
	}
	for _, tc := range cases {
		err := Plan{Events: []Event{tc.ev}}.Validate(4, 16)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestValidateConcurrency(t *testing.T) {
	// Four overlapping failures of distinct cores on a 4-core machine:
	// the whole machine would be down.
	var all Plan
	for c := 0; c < 4; c++ {
		all.Events = append(all.Events, Event{Kind: CoreFail, At: 100, Duration: 50, Core: c})
	}
	if err := all.Validate(4, 16); err == nil {
		t.Fatal("want error for all cores down concurrently")
	}
	// Three of four is fine.
	three := Plan{Events: all.Events[:3]}
	if err := three.Validate(4, 16); err != nil {
		t.Fatalf("three of four cores down should validate: %v", err)
	}
	// The same core failing twice concurrently is ambiguous.
	dup := Plan{Events: []Event{
		{Kind: CoreFail, At: 0, Duration: 100, Core: 1},
		{Kind: CoreFail, At: 50, Duration: 100, Core: 1},
	}}
	if err := dup.Validate(4, 16); err == nil {
		t.Fatal("want error for concurrent failure of the same core")
	}
	// Sequential failures of the same core are fine.
	seq := Plan{Events: []Event{
		{Kind: CoreFail, At: 0, Duration: 100, Core: 1},
		{Kind: CoreFail, At: 100, Duration: 100, Core: 1},
	}}
	if err := seq.Validate(4, 16); err != nil {
		t.Fatalf("sequential failures should validate: %v", err)
	}
	// Overlapping way faults summing to the full cache.
	dark := Plan{Events: []Event{
		{Kind: WayFault, At: 0, Duration: 100, Ways: 8},
		{Kind: WayFault, At: 50, Duration: 100, Ways: 8},
	}}
	if err := dark.Validate(4, 16); err == nil {
		t.Fatal("want error for all ways dark concurrently")
	}
}

func TestNormalizedOrderAndStability(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: LatencySpike, At: 50, Factor: 2},
		{Kind: CoreFail, At: 10, Core: 2},
		{Kind: CoreFail, At: 10, Core: 0},
		{Kind: WayFault, At: 10, Ways: 1},
		// Ties on (At, Kind, Core) order by ways, then factor, then
		// duration.
		{Kind: WayFault, At: 20, Ways: 2},
		{Kind: WayFault, At: 20, Ways: 1},
		{Kind: LatencySpike, At: 60, Factor: 3, Duration: 9},
		{Kind: LatencySpike, At: 60, Factor: 2, Duration: 9},
		{Kind: LatencySpike, At: 60, Factor: 2, Duration: 5},
	}}
	n := p.Normalized()
	want := []Event{
		{Kind: CoreFail, At: 10, Core: 0},
		{Kind: CoreFail, At: 10, Core: 2},
		{Kind: WayFault, At: 10, Ways: 1},
		{Kind: WayFault, At: 20, Ways: 1},
		{Kind: WayFault, At: 20, Ways: 2},
		{Kind: LatencySpike, At: 50, Factor: 2},
		{Kind: LatencySpike, At: 60, Factor: 2, Duration: 5},
		{Kind: LatencySpike, At: 60, Factor: 2, Duration: 9},
		{Kind: LatencySpike, At: 60, Factor: 3, Duration: 9},
	}
	if !reflect.DeepEqual(n.Events, want) {
		t.Fatalf("Normalized = %+v, want %+v", n.Events, want)
	}
	// The original is untouched and renormalizing is a fixed point.
	if p.Events[0].Kind != LatencySpike {
		t.Fatal("Normalized mutated its receiver")
	}
	if !reflect.DeepEqual(n.Normalized(), n) {
		t.Fatal("Normalized is not idempotent")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	p := Plan{Events: []Event{
		{Kind: CoreFail, At: 1000, Duration: 500, Core: 2},
		{Kind: WayFault, At: 2000, Ways: 3},
		{Kind: LatencySpike, At: 3000, Duration: 123, Factor: 2.5},
	}}
	got, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("ParsePlan(String()) failed: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip = %+v, want %+v", got, p)
	}
}

func TestParsePlanComments(t *testing.T) {
	src := `
# a comment
core-fail at=5 core=1

way-fault at=9 for=4 ways=2
`
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(p.Events))
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"meteor-strike at=5",
		"core-fail core=1",            // missing at
		"core-fail at=x core=1",       // bad number
		"core-fail at=5 ways=2",       // wrong field for kind
		"way-fault at=5 core=1",       // wrong field for kind
		"core-fail at=5 factor=2",     // wrong field for kind
		"core-fail at=5 colour=red",   // unknown key
		"way-fault at=5 ways=0",       // zero ways
		"latency-spike at=5 factor=1", // factor must exceed 1
		"core-fail at=-3 core=0",
		"core-fail at=5 core",
	}
	for _, src := range bad {
		if _, err := ParsePlan(src); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", src)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	a := Generate(7, 4, DefaultHorizon, 4, 16)
	b := Generate(7, 4, DefaultHorizon, 4, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
	if a.Empty() {
		t.Fatal("rate 4/Gcycle over 4 Gcycles generated nothing")
	}
	if err := a.Validate(4, 16); err != nil {
		t.Fatalf("generated plan fails validation: %v", err)
	}
	if c := Generate(8, 4, DefaultHorizon, 4, 16); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical plans")
	}
	if !Generate(7, 0, DefaultHorizon, 4, 16).Empty() {
		t.Fatal("rate 0 must generate an empty plan")
	}
}

func TestGenerateSuppressesWayFaults(t *testing.T) {
	p := Generate(3, 8, DefaultHorizon, 4, 0)
	for _, e := range p.Events {
		if e.Kind == WayFault {
			t.Fatalf("ways<=1 must suppress way faults, got %+v", e)
		}
	}
	if err := p.Validate(4, 16); err != nil {
		t.Fatalf("suppressed-way plan fails validation: %v", err)
	}
}

func TestMergeAndEmpty(t *testing.T) {
	a := Plan{Events: []Event{{Kind: CoreFail, At: 1, Core: 0}}}
	if got := a.Merge(Plan{}); !reflect.DeepEqual(got, a) {
		t.Fatal("merging an empty plan must be identity")
	}
	b := Plan{Events: []Event{{Kind: LatencySpike, At: 2, Factor: 3}}}
	m := a.Merge(b)
	if len(m.Events) != 2 {
		t.Fatalf("merged %d events, want 2", len(m.Events))
	}
	if !(Plan{}).Empty() || a.Empty() {
		t.Fatal("Empty misreports")
	}
}

func TestEventEnd(t *testing.T) {
	if e := (Event{At: 5, Duration: 10}); e.End() != 15 {
		t.Fatalf("End = %d, want 15", e.End())
	}
	perm := Event{At: 5}
	if perm.End() <= 5 || !perm.overlaps(Event{At: 1 << 60, Duration: 1}) {
		t.Fatal("permanent fault must overlap all later events")
	}
	if !strings.Contains(Kind(9).String(), "Kind(") {
		t.Fatal("unknown kind String")
	}
}

func TestKillTimes(t *testing.T) {
	a := KillTimes(7, 5, 10*time.Second)
	b := KillTimes(7, 5, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("KillTimes is not deterministic")
	}
	if len(a) != 5 {
		t.Fatalf("got %d kills, want 5", len(a))
	}
	for i, at := range a {
		if at <= 0 || at >= 10*time.Second {
			t.Errorf("kill %d at %v outside (0, horizon)", i, at)
		}
		// Stratified: one kill per equal slice, so strictly increasing.
		if i > 0 && at <= a[i-1] {
			t.Errorf("kill %d at %v not after %v", i, at, a[i-1])
		}
		lo := time.Duration(i) * 2 * time.Second
		if at < lo || at >= lo+2*time.Second {
			t.Errorf("kill %d at %v escaped its slice [%v, %v)", i, at, lo, lo+2*time.Second)
		}
	}
	// One nanosecond a slice: the first kill's draw truncates to 0, and
	// a kill at 0 would precede the run it is meant to interrupt.
	if first := KillTimes(7, 3, 3)[0]; first != 1 {
		t.Errorf("first kill of 1 ns slices at %v, want 1ns", first)
	}
	if KillTimes(7, 0, time.Second) != nil || KillTimes(7, 3, 0) != nil {
		t.Fatal("degenerate inputs must yield no kills")
	}
}

// TestParseEventRejectsForeignFields: a field that belongs to another
// kind is refused by the decoder itself, before any plan is validated.
func TestParseEventRejectsForeignFields(t *testing.T) {
	for _, c := range []struct {
		kind string
		kvs  []string
	}{
		{"way-fault", []string{"at=5", "core=1"}},
		{"core-fail", []string{"at=5", "ways=2"}},
		{"way-fault", []string{"at=5", "factor=2"}},
	} {
		if e, err := ParseEvent(c.kind, c.kvs); err == nil || !strings.Contains(err.Error(), "is only valid for") {
			t.Errorf("ParseEvent(%s, %v) = %+v, %v; want a foreign-field error", c.kind, c.kvs, e, err)
		}
	}
}

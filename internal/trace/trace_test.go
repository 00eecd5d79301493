package trace

import (
	"strings"
	"testing"
)

func record(r *Recorder, jobID int, events ...Event) {
	for _, e := range events {
		e.JobID = jobID
		r.Record(e)
	}
}

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	record(&r, 1,
		Event{Cycle: 0, Kind: Submitted},
		Event{Cycle: 0, Kind: Accepted, Detail: 0},
		Event{Cycle: 0, Kind: Started},
		Event{Cycle: 100, Kind: Completed, DeadlineMet: true},
	)
	record(&r, 2, Event{Cycle: 5, Kind: Submitted}, Event{Cycle: 5, Kind: Rejected})
	events := r.Events()
	if len(events) != 6 {
		t.Fatalf("events = %d, want 6", len(events))
	}
	if events[3].JobID != 1 || events[3].Kind != Completed || events[5].JobID != 2 || events[5].Kind != Rejected {
		t.Errorf("events out of recording order: %+v", events)
	}
}

func TestGanttRendering(t *testing.T) {
	lanes := []Lane{
		{JobID: 1, Start: 0, End: 100, Deadline: 150, Met: true},
		{JobID: 2, Start: 0, End: 200, Deadline: 180, Downgraded: true, SwitchBack: 80, Met: false},
	}
	g := Gantt(lanes, 60)
	if !strings.Contains(g, "job    1 met ") {
		t.Errorf("missing met lane:\n%s", g)
	}
	if !strings.Contains(g, "job    2 MISS") {
		t.Errorf("missing missed lane:\n%s", g)
	}
	for _, sym := range []string{"=", "#", "^", ".", "!"} {
		if !strings.Contains(g, sym) {
			t.Errorf("symbol %q absent:\n%s", sym, g)
		}
	}
}

func TestGanttEmptyAndDegenerate(t *testing.T) {
	if g := Gantt(nil, 80); !strings.Contains(g, "no completed jobs") {
		t.Errorf("empty gantt = %q", g)
	}
	// Zero-span lanes must not divide by zero.
	g := Gantt([]Lane{{JobID: 1, Start: 5, End: 5, Met: true}}, 10)
	if !strings.Contains(g, "job    1") {
		t.Errorf("degenerate gantt = %q", g)
	}
}

// TestGanttSpansTheEarliestStart: lanes in job order need not start in
// order; the chart spans from the earliest start.
func TestGanttSpansTheEarliestStart(t *testing.T) {
	g := Gantt([]Lane{{JobID: 1, Start: 50, End: 100, Met: true}, {JobID: 2, Start: 0, End: 40, Met: true}}, 20)
	if !strings.HasPrefix(g, "cycles 0 .. 100 ") {
		t.Errorf("gantt does not span from the earliest start:\n%s", g)
	}
}

func TestEventKindStrings(t *testing.T) {
	if Submitted.String() != "submitted" || Completed.String() != "completed" {
		t.Error("event kind names wrong")
	}
	if !strings.Contains(EventKind(99).String(), "99") {
		t.Error("unknown kind should include the number")
	}
}

// TestRecorderBlockGrowth drives the chunked storage across several
// block boundaries (first block 256, doubling to the 16384 cap) and
// checks Events still returns each event exactly once, in order.
func TestRecorderBlockGrowth(t *testing.T) {
	var r Recorder
	const n = recorderFirstBlock + 2*recorderMaxBlock + 37 // > 4 blocks
	for i := 0; i < n; i++ {
		r.Record(Event{Cycle: int64(i), JobID: i % 7, Kind: Submitted})
	}
	events := r.Events()
	if len(events) != n {
		t.Fatalf("Events() = %d entries, want %d", len(events), n)
	}
	for i, e := range events {
		if e.Cycle != int64(i) {
			t.Fatalf("event %d has cycle %d; order lost across block boundary", i, e.Cycle)
		}
	}
}

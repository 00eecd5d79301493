package qos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	l := NewLAC(nodeCap())
	tw := int64(1000)
	l.Admit(Request{JobID: 1, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	l.Admit(Request{JobID: 2, Target: medRUM(0, tw, 3), Mode: Elastic(0.05), Arrival: 0})
	l.Admit(Request{JobID: 3, Target: RUM{Resources: PresetMedium(), MaxWallClock: tw},
		Mode: Opportunistic(), Arrival: 0})

	var buf bytes.Buffer
	if err := l.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := RestoreLAC(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The restored controller behaves identically: the next medium job
	// must wait for the same slot as on the original.
	orig := l.Admit(Request{JobID: 4, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	rest := back.Admit(Request{JobID: 4, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0})
	if orig.Start != rest.Start || orig.Accepted != rest.Accepted {
		t.Errorf("restored decision %+v differs from original %+v", rest, orig)
	}
	// Counters survived.
	p1, a1, r1 := l.Counters()
	p2, a2, r2 := back.Counters()
	if p1-1 != p2-1 || a1 != a2 || r1 != r2 { // both saw one extra admit above
		t.Errorf("counters: (%d,%d,%d) vs (%d,%d,%d)", p1, a1, r1, p2, a2, r2)
	}
	// Completion reclaims via the restored job index, with the restored
	// controller agreeing with the original on the next decision.
	l.Complete(1, Strict(), 100)
	back.Complete(1, Strict(), 100)
	d1 := l.Admit(Request{JobID: 5, Target: medRUM(100, tw, 3), Mode: Strict(), Arrival: 100})
	d2 := back.Admit(Request{JobID: 5, Target: medRUM(100, tw, 3), Mode: Strict(), Arrival: 100})
	if d1.Accepted != d2.Accepted || d1.Start != d2.Start {
		t.Errorf("post-reclaim decisions diverge: %+v vs %+v", d1, d2)
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"garbage", "not json"},
		{"wrong version", `{"version": 99, "capacity": {"Cores":4,"CacheWays":16}}`},
		{"zero capacity", `{"version": 1, "capacity": {}}`},
		{"capacity above the bound", `{"version": 1, "capacity": {"Cores":4,"CacheWays":1073741824}}`},
		{"malformed reservation", `{"version":1,"capacity":{"Cores":4,"CacheWays":16},
			"reservations":[{"ID":1,"JobID":1,"Vec":{"Cores":1,"CacheWays":7},"Start":10,"End":5}]}`},
		{"overcommitted", `{"version":1,"capacity":{"Cores":1,"CacheWays":7},
			"reservations":[
			 {"ID":1,"JobID":1,"Vec":{"Cores":1,"CacheWays":7},"Start":0,"End":10},
			 {"ID":2,"JobID":2,"Vec":{"Cores":1,"CacheWays":7},"Start":5,"End":15}]}`},
	}
	for _, tc := range cases {
		if _, err := RestoreLAC(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
	}
	// The bound itself restores.
	if _, err := RestoreLAC(strings.NewReader(`{"version": 1, "capacity": {"Cores":4,"CacheWays":1073741823}}`)); err != nil {
		t.Errorf("capacity at the bound: %v", err)
	}
}

// TestStaleReservationIDSurvivesRestore: a job whose reservation Prune
// dropped before the job completed keeps its id in reservations_by_job
// (the LAC holds the dropped node until Complete). The snapshot writes
// that stale id; RestoreLAC gives it a detached node, so the restored
// LAC re-encodes the same bytes, refuses to shrink the stale hold, and
// takes the job's later Complete as a no-op on its timeline, exactly as
// the original does.
func TestStaleReservationIDSurvivesRestore(t *testing.T) {
	const tw = 1000
	l := NewLAC(nodeCap())
	for job := 1; job <= 3; job++ {
		if d := l.Admit(Request{JobID: job, Target: medRUM(0, tw, 3), Mode: Strict(), Arrival: 0}); !d.Accepted {
			t.Fatalf("job %d rejected: %s", job, d.Reason)
		}
	}
	// A medium job holds 7 of 16 ways: jobs 1 and 2 share [0, 1000), job 3
	// waits for [1000, 2000). Job 3's completion at 1,500 prunes the other
	// two reservations while their jobs still run.
	l.Complete(3, Strict(), 1500)
	if _, ok := l.resByJob[1]; !ok || l.held(1) != nil || l.Timeline().Len() != 0 {
		t.Fatalf("job 1's reservation should be pruned and still mapped: held %v, Len %d", l.held(1), l.Timeline().Len())
	}
	snap := func(l *LAC) string {
		var b bytes.Buffer
		if err := l.Snapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := snap(l)
	var wire lacSnapshot
	if err := json.Unmarshal([]byte(before), &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Res) != 0 || fmt.Sprint(wire.ResByJob) != "map[1:[1] 2:[2]]" {
		t.Fatalf("snapshot should list no reservation and both stale ids:\n%s", before)
	}
	var oracle bytes.Buffer
	if err := l.naiveSnapshot(&oracle); err != nil {
		t.Fatal(err)
	}
	if oracle.String() != before {
		t.Fatalf("snapshot\n%s\nencoding/json writes\n%s", before, oracle.String())
	}
	back, err := RestoreLAC(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap(back); got != before {
		t.Fatalf("restored LAC re-encodes\n%s\nwant\n%s", got, before)
	}
	vec := ResourceVector{Cores: 1, CacheWays: 1}
	for _, c := range []*LAC{l, back} {
		if c.ShrinkReservation(1, vec) {
			t.Fatal("ShrinkReservation shrank a pruned reservation")
		}
		c.Complete(1, Strict(), 1600)
	}
	after := snap(l)
	if got := snap(back); got != after {
		t.Fatalf("after job 1 completes, restored LAC\n%s\noriginal\n%s", got, after)
	}
	if _, ok := back.resByJob[1]; ok || len(back.resByJob) != 1 || back.Timeline().Len() != 0 {
		t.Fatalf("job 1's completion left its entry or touched the timeline:\n%s", after)
	}
}

package qos

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"cmpqos/internal/jsonenc"
)

// naiveSnapshot is the reflection path LAC.Snapshot used before the
// hand-written encoder: copy the reservations out, fill the wire struct,
// let encoding/json render it. It survives only as the oracle the
// encoder is held to, the way naiveTimeline and naiveGAC do.
func (l *LAC) naiveSnapshot(w io.Writer) error {
	resByJob := make(map[int][]int, len(l.resByJob))
	for job, id := range l.resByJob {
		resByJob[job] = []int{id}
	}
	snap := lacSnapshot{
		Version:  snapshotVersion,
		Capacity: l.timeline.capacity,
		NextID:   l.timeline.nextID,
		Res:      l.timeline.Reservations(),
		ResByJob: resByJob,
		OppLive:  l.oppLive,
		Probes:   l.probes,
		Admits:   l.admits,
		Rejects:  l.rejects,
		Overhead: l.overheadCycles,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// checkSnapshotEncoding holds every node's hand-written snapshot to the
// oracle's bytes twice — alone at depth 0 (LAC.Snapshot) and nested two
// levels down, as the daemon's envelope carries them, where the oracle
// is MarshalIndent re-indenting each node's RawMessage — and, when the
// state is one RestoreLAC accepts, through a restore and back.
func checkSnapshotEncoding(t *testing.T, nodes []*LAC, mustRestore bool) {
	t.Helper()
	var nested bytes.Buffer
	e := jsonenc.New(&nested)
	e.Object()
	e.Key("nodes")
	e.Array()
	var oracle struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	for i, l := range nodes {
		var got, want bytes.Buffer
		if err := l.Snapshot(&got); err != nil {
			t.Fatal(err)
		}
		if err := l.naiveSnapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("node %d snapshot differs from encoding/json's\ngot:\n%s\nwant:\n%s", i, got.Bytes(), want.Bytes())
		}
		oracle.Nodes = append(oracle.Nodes, want.Bytes())
		e.Elem()
		l.EncodeSnapshot(e)

		back, err := RestoreLAC(bytes.NewReader(got.Bytes()))
		if err != nil {
			// Capacity faults leave history above the shrunk capacity,
			// which restore rightly refuses.
			if mustRestore {
				t.Fatalf("node %d does not restore: %v", i, err)
			}
			continue
		}
		var again bytes.Buffer
		if err := back.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("node %d changed across RestoreLAC\nbefore:\n%s\nafter:\n%s", i, got.Bytes(), again.Bytes())
		}
	}
	e.EndArray()
	e.EndObject()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(&oracle, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nested.Bytes(), want) {
		t.Fatalf("nested snapshots differ from MarshalIndent's\ngot:\n%s\nwant:\n%s", nested.Bytes(), want)
	}
}

// FuzzSnapshotEncodeEquivalence drives arbitrary fleets through
// arbitrary op streams (the GAC harness's: admits of every mode,
// negotiation, auto-downgrade, direct admits, completions, capacity
// faults, way-shedding) and holds every resulting snapshot to the oracle.
func FuzzSnapshotEncodeEquivalence(f *testing.F) {
	f.Add([]byte{}) // one empty node
	all := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for s := byte(0); s < 4; s++ {
		f.Add(gacStream(int64(s)+1, [4]byte{s | 0x80, 7, 3, 0x1a}, 60, all))
		f.Add(gacStream(int64(s)+5, [4]byte{s | 0xbc, 19, 5, 0x57}, 60, all))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		checkSnapshotEncoding(t, runGACEquivalence(t, data).fastNodes, false)
	})
}

// TestSnapshotEncodeEquivalenceStreams is the same check on seeded
// streams in every plain `go test`: dense and sparse job ids, saturated
// and mostly-empty fleets, with and without the ops restore refuses.
func TestSnapshotEncodeEquivalenceStreams(t *testing.T) {
	submit := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	all := append([]byte{12, 13, 14, 15}, submit...)
	for _, v := range []struct {
		name  string
		h     [4]byte
		kinds []byte
	}{
		{"dense-ids", [4]byte{0, 5, 2, 0x1a}, submit},
		{"sparse-ids", [4]byte{0x80, 5, 2, 0x1a}, submit},
		{"sparse-ids-autodowngrade-fleet", [4]byte{0x85, 19, 1, 0x1a}, submit},
		{"oversub-opportunistic", [4]byte{0x82, 5, 2, 0x1a}, submit},
		{"everything", [4]byte{0xfc, 19, 2, 0x1b}, all},
	} {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				for _, ops := range []int{0, 7, 500} {
					p := runGACEquivalence(t, gacStream(seed, v.h, ops, v.kinds))
					checkSnapshotEncoding(t, p.fastNodes, len(v.kinds) == len(submit))
				}
			}
		})
	}
}

// TestSnapshotNilReservationList: a job holds one reservation per
// node, so RestoreLAC refuses an entry that lists none (null or []) or
// more than one, naming the job, and restores a one-id entry whose
// reservation is gone (pruned before its job completed) as it was.
func TestSnapshotNilReservationList(t *testing.T) {
	const head = `{"version":1,"capacity":{"Cores":4,"CacheWays":16},"reservations_by_job":`
	for _, c := range []struct{ byJob, job string }{
		{`{"10":null}`, "job 10 "},
		{`{"9":[]}`, "job 9 "},
		{`{"-1":[3,4]}`, "job -1 "},
	} {
		_, err := RestoreLAC(strings.NewReader(head + c.byJob + "}"))
		if err == nil || !strings.Contains(err.Error(), c.job) {
			t.Errorf("%s: RestoreLAC error %v, want one naming %q", c.byJob, err, c.job)
		}
	}
	l, err := RestoreLAC(strings.NewReader(head + `{"10":[12],"9":[3],"-1":[7]}}`))
	if err != nil {
		t.Fatal(err)
	}
	checkSnapshotEncoding(t, []*LAC{l}, true)
}

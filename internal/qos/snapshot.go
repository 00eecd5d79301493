package qos

import (
	"encoding/json"
	"fmt"
	"io"

	"cmpqos/internal/jsonenc"
)

// Snapshotting lets a user-level admission controller (§5) survive a
// restart: the reservation timeline and admission counters are the only
// durable state; everything else is derived. The wire format is JSON,
// versioned so future layouts can migrate.

// snapshotVersion is bumped on incompatible layout changes; walVersion
// (wal.go) plays the same role for the log records between snapshots.
const snapshotVersion = 1

// lacSnapshot is the wire layout, and what RestoreLAC decodes into.
// EncodeSnapshot writes the same fields in the same order by hand;
// snapshot_oracle_test.go holds it to encoding/json's rendering of this
// struct. A job holds one reservation per node, but its entry stays a
// one-element list, so the bytes are the ones every earlier snapshot
// carried.
type lacSnapshot struct {
	Version  int            `json:"version"`
	Capacity ResourceVector `json:"capacity"`
	NextID   int            `json:"next_reservation_id"`
	Res      []Reservation  `json:"reservations"`
	ResByJob map[int][]int  `json:"reservations_by_job"`
	OppLive  int            `json:"opportunistic_live"`
	Probes   int64          `json:"probes"`
	Admits   int64          `json:"admits"`
	Rejects  int64          `json:"rejects"`
	Overhead int64          `json:"overhead_cycles"`
}

// Snapshot serializes the controller's durable state, newline-terminated.
func (l *LAC) Snapshot(w io.Writer) error {
	e := jsonenc.New(w)
	l.EncodeSnapshot(e)
	e.Line()
	return e.Flush()
}

// EncodeSnapshot renders the controller's durable state as the encoder's
// current value, at whatever depth the encoder stands — the daemon nests
// one per node inside its envelope. The reservations are written by
// walking the index in place, in (Start, ID) order; nothing is copied.
func (l *LAC) EncodeSnapshot(e *jsonenc.Encoder) {
	e.Object()
	e.IntField("version", snapshotVersion)
	e.Key("capacity")
	encodeVec(e, l.timeline.capacity)
	e.IntField("next_reservation_id", int64(l.timeline.nextID))
	e.Key("reservations")
	e.Array()
	encodeReservations(e, l.timeline.idx.root)
	e.EndArray()
	e.Key("reservations_by_job")
	e.Object()
	for _, job := range jsonenc.IntKeys(e, l.resByJob) {
		e.IntKey(job)
		e.Array()
		e.Elem()
		e.Int(int64(l.resByJob[job].res.ID))
		e.EndArray()
	}
	e.EndObject()
	e.IntField("opportunistic_live", int64(l.oppLive))
	e.IntField("probes", l.probes)
	e.IntField("admits", l.admits)
	e.IntField("rejects", l.rejects)
	e.IntField("overhead_cycles", l.overheadCycles)
	e.EndObject()
}

func encodeVec(e *jsonenc.Encoder, v ResourceVector) {
	e.Object()
	e.IntField("Cores", int64(v.Cores))
	e.IntField("CacheWays", int64(v.CacheWays))
	e.IntField("MemoryMB", int64(v.MemoryMB))
	e.IntField("BandwidthMBps", int64(v.BandwidthMBps))
	e.EndObject()
}

func encodeReservations(e *jsonenc.Encoder, n *resNode) {
	if n == nil {
		return
	}
	encodeReservations(e, n.left)
	e.Elem()
	e.Object()
	e.IntField("ID", int64(n.res.ID))
	e.IntField("JobID", int64(n.res.JobID))
	e.Key("Vec")
	encodeVec(e, n.res.Vec)
	e.IntField("Start", n.res.Start)
	e.IntField("End", n.res.End)
	e.EndObject()
	encodeReservations(e, n.right)
}

// RestoreLAC rebuilds a controller from a snapshot. Options (auto
// downgrade, pin caps) are configuration, not state — pass them again.
func RestoreLAC(r io.Reader, opts ...LACOption) (*LAC, error) {
	var snap lacSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("qos: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, &VersionError{What: "snapshot", Got: snap.Version, Want: snapshotVersion}
	}
	if err := CheckCapacity(snap.Capacity); err != nil {
		return nil, fmt.Errorf("qos: snapshot capacity: %w", err)
	}
	l := NewLAC(snap.Capacity, opts...)
	for _, res := range snap.Res {
		if res.End <= res.Start || !res.Vec.Valid() {
			return nil, fmt.Errorf("qos: snapshot reservation %d malformed", res.ID)
		}
		// Re-reserve through the timeline so capacity invariants are
		// re-verified; a corrupted snapshot fails loudly here.
		n := l.timeline.restore(res)
		if n == nil {
			return nil, fmt.Errorf("qos: snapshot reservations exceed capacity at %d", res.Start)
		}
		if ids := snap.ResByJob[res.JobID]; len(ids) > 0 && ids[0] == res.ID {
			l.resByJob[res.JobID] = n
		}
	}
	l.timeline.nextID = snap.NextID
	for job, ids := range snap.ResByJob {
		if len(ids) != 1 {
			return nil, fmt.Errorf("qos: snapshot job %d lists %d reservation ids, want one", job, len(ids))
		}
		if _, ok := l.resByJob[job]; !ok {
			// Pruned before the job completed: a detached node keeps
			// the id for the next snapshot, and is in no index.
			l.resByJob[job] = &resNode{res: Reservation{ID: ids[0], JobID: job}}
		}
	}
	l.oppLive = snap.OppLive
	l.probes = snap.Probes
	l.admits = snap.Admits
	l.rejects = snap.Rejects
	l.overheadCycles = snap.Overhead
	return l, nil
}

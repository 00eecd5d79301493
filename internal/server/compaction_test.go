package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestWALByteBoundRotation pins the -wal-max-bytes knob: with the
// record-count bound effectively off, the byte bound alone must force
// snapshot-and-rotate, keeping the log's size bounded by the cap plus
// at most the one record that crossed it — and the rotation must not
// cost crash safety.
func TestWALByteBoundRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotEvery = 1 << 20
	cfg.WALMaxBytes = 2048
	_, ts := newTestServer(t, cfg)
	submitN(t, ts.URL, 40, 1)

	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("byte bound never rotated the WAL: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= 2*cfg.WALMaxBytes {
		t.Errorf("WAL grew to %d bytes under a %d-byte bound", fi.Size(), cfg.WALMaxBytes)
	}

	// Crash (abandon without drain) and recover: rotation must preserve
	// the byte-identity contract.
	before := getBytes(t, ts.URL+"/v1/snapshot")
	ts.Close()
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	s2.mu.Lock()
	after, err := s2.encodeStateLocked()
	s2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("recovered state differs from pre-crash state after byte-bound rotations:\npre:  %s\npost: %s",
			before, after)
	}
}

// TestSnapshotAllocView checks the ?alloc=1 wrapper: the durable
// envelope rides along verbatim (the crash-identity contract compares
// exactly those bytes), and the derived section reports sane per-node
// allocation state: each node's reservation count is its timeline's.
func TestSnapshotAllocView(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s, ts := newTestServer(t, cfg)
	submitN(t, ts.URL, 12, 1)

	bare := getBytes(t, ts.URL+"/v1/snapshot")
	var view AllocView
	if err := json.Unmarshal(getBytes(t, ts.URL+"/v1/snapshot?alloc=1"), &view); err != nil {
		t.Fatalf("decoding alloc view: %v", err)
	}
	// Marshaling the wrapper compacts the embedded RawMessage's
	// whitespace; the content must survive untouched.
	var compactBare, compactView bytes.Buffer
	if err := json.Compact(&compactBare, bare); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compactView, view.State); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compactBare.Bytes(), compactView.Bytes()) {
		t.Errorf("alloc view state is not the bare snapshot verbatim:\nbare: %s\nview: %s",
			bare, view.State)
	}
	if len(view.Nodes) != cfg.Nodes {
		t.Fatalf("alloc view has %d nodes, want %d", len(view.Nodes), cfg.Nodes)
	}
	if view.Jobs == 0 {
		t.Error("alloc view reports zero live jobs after admissions")
	}
	var reservations int
	for _, n := range view.Nodes {
		if n.Cores != cfg.Capacity.Cores || n.Ways != cfg.Capacity.CacheWays {
			t.Errorf("node %d capacity %d cores/%d ways, want %d/%d",
				n.Node, n.Cores, n.Ways, cfg.Capacity.Cores, cfg.Capacity.CacheWays)
		}
		if n.UsedCores < 0 || n.UsedCores > n.Cores || n.UsedWays < 0 || n.UsedWays > n.Ways {
			t.Errorf("node %d usage %d cores/%d ways out of range", n.Node, n.UsedCores, n.UsedWays)
		}
		if n.Headroom != 0 {
			t.Errorf("node %d reports headroom %d with no controller attached", n.Node, n.Headroom)
		}
		tl := s.nodes[n.Node].Timeline()
		if n.Reservations != tl.Len() || n.Reservations != len(tl.Reservations()) {
			t.Errorf("node %d reports %d reservations, its timeline holds %d", n.Node, n.Reservations, tl.Len())
		}
		reservations += n.Reservations
	}
	if reservations == 0 {
		t.Error("alloc view reports zero reservations after admissions")
	}
}

func getHealth(t *testing.T, base string) Health {
	t.Helper()
	var h Health
	if err := json.Unmarshal(getBytes(t, base+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSnapshotFailureReported pulls the state directory out from under a
// running daemon: the periodic snapshot can no longer be written, the
// admission path carries on from the (still open) WAL, and healthz says
// so instead of the error being dropped.
func TestSnapshotFailureReported(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	cfg := testConfig(dir)
	cfg.SnapshotEvery = 8
	_, ts := newTestServer(t, cfg)
	submitN(t, ts.URL, 4, 1)
	if h := getHealth(t, ts.URL); h.SnapshotFailures != 0 || h.LastSnapshotError != "" {
		t.Fatalf("healthy daemon reports snapshot trouble: %+v", h)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	submitN(t, ts.URL, 12, 100) // crosses SnapshotEvery; fails the test on any non-200
	h := getHealth(t, ts.URL)
	if h.SnapshotFailures == 0 || h.LastSnapshotError == "" {
		t.Fatalf("snapshot failures went unreported: %+v", h)
	}
	if h.Status != "ok" {
		t.Errorf("status %q: a failed snapshot must not take the daemon down", h.Status)
	}
}

// TestCrashRecoveryWarmPlacementTable is the byte-identity contract at a
// fleet size where the GAC's bounds table does real work. The live
// daemon decides with a warm table; recovery replays the WAL tail
// through a cold one. Both must land on the same bytes — decisions and
// every node's charged probe count included — because the table only
// ever changes how many nodes are asked, never what is billed or chosen.
func TestCrashRecoveryWarmPlacementTable(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Nodes = 64
	cfg.SnapshotEvery = 160 // the crash lands mid-WAL, after rotations
	_, ts := newTestServer(t, cfg)

	// More than 64 nodes can hold, so most of the fleet is busy and
	// placement is a search, with every third grant cancelled early.
	var live []int
	for i := 0; i < 900; i++ {
		now := int64(1 + i*4)
		req := SubmitRequest{
			JobID:      1 + i,
			Mode:       []string{"strict", "strict", "elastic", "opportunistic"}[i%4],
			Slack:      0.1,
			Cores:      1,
			Ways:       3 + i%5,
			TW:         int64(2000 + 500*(i%5)),
			DeadlineIn: int64(2000+500*(i%5)) * int64(5+5*(i%2)) / 4,
			Arrival:    now,
		}
		var resp SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/submit", req, &resp); code != 200 {
			t.Fatalf("submit %d: status %d", req.JobID, code)
		}
		if resp.Accepted {
			live = append(live, req.JobID)
		}
		if i%3 == 2 && len(live) > 0 {
			k := (i * 7) % len(live)
			if code := postJSON(t, ts.URL+"/v1/cancel", CancelRequest{JobID: live[k], Now: now}, nil); code != 200 {
				t.Fatalf("cancel %d: status %d", live[k], code)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	h := getHealth(t, ts.URL)
	if p := h.Placement; p.Shapes == 0 || p.PrunedInfeasible+p.PrunedBeaten == 0 || p.Probes >= p.Charged {
		t.Fatalf("the placement table never warmed: %+v", p)
	}
	if h.Rejected == 0 {
		t.Fatal("the fleet never saturated")
	}
	before := getBytes(t, ts.URL+"/v1/snapshot")
	ts.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	s2.mu.Lock()
	after, err := s2.encodeStateLocked()
	replayed := s2.gac.Stats()
	s2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Charged == 0 || replayed.Charged >= h.Placement.Charged {
		t.Fatalf("recovery should replay only the WAL tail through a fresh table: replayed %+v, live %+v", replayed, h.Placement)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("state recovered through a cold placement table differs from the warm daemon's")
	}
}

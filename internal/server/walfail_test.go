package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// fakeDir is the state directory of every daemon on a fake disk.
const fakeDir = "/qosd"

// fakeConfig is testConfig on a fake disk, where a sync costs nothing:
// every record is synced, so acked means durable.
func fakeConfig() Config {
	cfg := testConfig(fakeDir)
	cfg.NoSync = false
	return cfg
}

func newFakeServer(t testing.TB, cfg Config, disk *fakeDisk) *Server {
	t.Helper()
	s, err := newServer(cfg, disk)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return s
}

// stateOf renders s's durable state.
func stateOf(t testing.TB, s *Server) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.encodeStateLocked()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// imageOf is the crash image of disk now.
func imageOf(disk *fakeDisk) crashImage {
	disk.mu.Lock()
	defer disk.mu.Unlock()
	return disk.image()
}

// outcomeUnknown reports whether a 500 body says the failed record may
// still be replayed.
func outcomeUnknown(body []byte) bool {
	var e struct{ Outcome string }
	return json.Unmarshal(body, &e) == nil && e.Outcome == "unknown"
}

// TestAppendFailureFailsClosed is the WAL-failure contract on the fake
// disk. The daemon decides, logs, then applies, so a failed append
// leaves memory exactly as it was before the request: the state bytes do
// not move, and the next grant takes the reservation id the failed one
// would have. The file may still end in a torn frame, or hold the whole
// frame of a write whose fsync failed, so the daemon poisons the log on
// any append error and refuses submit, negotiate and cancel until a
// snapshot + rotation has re-anchored disk to memory — tried at once,
// and again on every refused request. The 500 is definite only when
// that first re-anchor landed; otherwise its body says
// "outcome":"unknown", and a crash may indeed replay the record. Crashes
// check it, each under both crash models: one after a transient error
// the immediate re-anchor absorbed, one inside a degraded interval, one
// after the disk healed and further operations were acked.
func TestAppendFailureFailsClosed(t *testing.T) {
	cfg := fakeConfig()
	cfg.Nodes = 1
	disk := newFakeDisk()
	s := newFakeServer(t, cfg, disk)

	post := func(path string, v any) (int, []byte) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(s, "POST", path, b)
		return rec.Code, rec.Body.Bytes()
	}
	submit := func(id int) (int, []byte) {
		return post("/v1/submit", SubmitRequest{JobID: id, Mode: "strict", Cores: 1, Ways: 2,
			TW: 1000, DeadlineIn: 100_000, Arrival: int64(10 * id)})
	}
	mustAdmit := func(id, wantRes int) {
		t.Helper()
		code, body := submit(id)
		var resp SubmitResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil || !resp.Accepted || resp.ReservationID != wantRes {
			t.Fatalf("submit %d: status %d, %s; want it acked with reservation_id %d", id, code, body, wantRes)
		}
	}
	// crash abandons the daemon — no drain, no request in flight — and
	// recovers what the disk kept, under both models, requiring the
	// acked bytes or, when a record of unknown outcome is on disk, also
	// alsoOK, the state that record makes. It reports whether some crash
	// recovered alsoOK, and returns the daemon the first one recovered.
	crash := func(alsoOK []byte) (gotAlso bool, next *Server, nextDisk *fakeDisk) {
		t.Helper()
		acked := stateOf(t, s)
		img := imageOf(disk)
		for model := 0; model < img.models(); model++ {
			for pat := 0; pat < img.landings(); pat++ {
				d := img.restore(model, pat, nil)
				s2 := newFakeServer(t, cfg, d)
				switch after := stateOf(t, s2); {
				case bytes.Equal(after, acked):
				case alsoOK != nil && bytes.Equal(after, alsoOK):
					gotAlso = true
				default:
					t.Fatalf("crash model %d, landing %d: recovered state differs from the acked state:\npre:  %s\npost: %s", model, pat, acked, after)
				}
				if next == nil {
					next, nextDisk = s2, d
				}
			}
		}
		return gotAlso, next, nextDisk
	}
	// unchanged requires the state bytes to be what they were before a
	// request that failed.
	unchanged := func(what string, before []byte) {
		t.Helper()
		if after := stateOf(t, s); !bytes.Equal(before, after) {
			t.Fatalf("%s left a trace in the state:\nbefore: %s\nafter:  %s", what, before, after)
		}
	}
	health := func() Health {
		var h Health
		if err := json.Unmarshal(serve(s, "GET", "/healthz", nil).Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	// One transient append error: the request it hit answers a definite
	// 500 and changed nothing, the re-anchor lands at once, and the next
	// grant is acked with the id the failed one would have taken.
	mustAdmit(1, 1)
	before := stateOf(t, s)
	disk.schedule(diskFault{op: opWrite, err: syscall.EIO})
	if code, body := submit(2); code != http.StatusInternalServerError || outcomeUnknown(body) {
		t.Fatalf("submit 2 on a failing append: status %d %s, want a definite 500", code, body)
	}
	unchanged("a submit whose append failed", before)
	mustAdmit(3, 2)
	if h := health(); h.WALDegraded || !strings.Contains(h.LastWALError, "input/output error") || h.Snapshots != 1 {
		t.Fatalf("after a transient append error: %+v", h)
	}
	_, s, disk = crash(nil)

	// A cancel whose record lands and whose fsync fails, on a disk that
	// cannot take the snapshot either: the answer is a 500 of unknown
	// outcome, the log stays poisoned and every mutating endpoint
	// refuses, retrying the re-anchor each time.
	before = stateOf(t, s)
	disk.schedule(diskFault{op: opSync, err: syscall.EIO},
		diskFault{op: opCreate, name: snapName + ".tmp", err: syscall.ENOSPC, sticky: true})
	if code, body := post("/v1/cancel", CancelRequest{JobID: 1, Now: 50}); code != http.StatusInternalServerError || !outcomeUnknown(body) {
		t.Fatalf("cancel on a failing fsync with no re-anchor: status %d %s, want 500 with outcome unknown", code, body)
	}
	unchanged("a cancel whose append failed", before)
	for name, refused := range map[string]func() int{
		"submit": func() int { code, _ := submit(4); return code },
		"negotiate": func() int {
			code, _ := post("/v1/negotiate", SubmitRequest{JobID: 4, Mode: "strict", Cores: 1, Ways: 2,
				TW: 1000, DeadlineIn: 100_000, Arrival: 40})
			return code
		},
		"cancel": func() int { code, _ := post("/v1/cancel", CancelRequest{JobID: 1, Now: 50}); return code },
	} {
		if code := refused(); code != http.StatusServiceUnavailable {
			t.Errorf("%s while the log is poisoned: status %d, want 503", name, code)
		}
	}
	unchanged("requests refused while the log is poisoned", before)
	if h := health(); !h.WALDegraded || !strings.Contains(h.LastWALError, "input/output error") ||
		h.SnapshotFailures < 4 || h.Snapshots != 0 || h.Jobs != 2 {
		t.Fatalf("while the log is poisoned: %+v", h)
	}
	// The outcome is unknown indeed: a crash that keeps only synced
	// bytes recovers the state before the cancel, one that keeps the
	// unsynced tail replays it.
	cancelled := applyOp(t, cfg, before, "/v1/cancel", []byte(`{"job_id":1,"now":50}`))
	if replayed, _, _ := crash(cancelled); !replayed {
		t.Fatal("no crash replayed the cancel whose fsync failed: its outcome was not unknown")
	}

	// The disk heals: the next request's re-anchor succeeds and the same
	// request is decided and acked, with the next id the node has. Nothing
	// refused left a trace — job 1 is still there to cancel, jobs 2 and 4
	// are not duplicates.
	disk.heal()
	mustAdmit(4, 3)
	if h := health(); h.WALDegraded || h.Snapshots != 1 {
		t.Fatalf("after the re-anchor: %+v", h)
	}
	if code, body := post("/v1/cancel", CancelRequest{JobID: 1, Now: 60}); code != http.StatusOK {
		t.Fatalf("cancel after the re-anchor: status %d %s", code, body)
	}
	mustAdmit(2, 4)
	crash(nil)
}

// applyOp is the state a daemon recovered to state reaches by taking
// one request, body to path: what replaying its record on top of state
// makes.
func applyOp(t testing.TB, cfg Config, state []byte, path string, body []byte) []byte {
	t.Helper()
	d := newFakeDisk()
	d.names[fakeDir+"/"+snapName] = &inode{data: state, synced: state}
	s := newFakeServer(t, cfg, d)
	if rec := serve(s, "POST", path, body); rec.Code != http.StatusOK {
		t.Fatalf("%s %s on the recovered state: status %d %s", path, body, rec.Code, rec.Body)
	}
	return stateOf(t, s)
}

// TestRecoverDiskErrors: a daemon refuses to start when its disk fails
// under recovery — reading the snapshot or the log, creating a fresh
// log, or cutting and reopening an existing one — and when its state
// directory cannot be made, naming the failure.
func TestRecoverDiskErrors(t *testing.T) {
	logged := func() *fakeDisk {
		d := newFakeDisk()
		s := newFakeServer(t, fakeConfig(), d)
		if rec := serve(s, "POST", "/v1/submit", []byte(`{"job_id":1,"mode":"opportunistic","cores":1,"ways":2,"arrival":5}`)); rec.Code != http.StatusOK {
			t.Fatalf("submit: status %d %s", rec.Code, rec.Body)
		}
		return d
	}
	for _, c := range []struct {
		name  string
		disk  *fakeDisk
		fault diskFault
	}{
		{"snapshot read", logged(), diskFault{op: opRead, name: snapName}},
		{"log read", logged(), diskFault{op: opRead, name: walName}},
		{"fresh log create", newFakeDisk(), diskFault{op: opCreate, name: walName + ".tmp"}},
		{"fresh log header", newFakeDisk(), diskFault{op: opWrite, name: walName + ".tmp"}},
		{"fresh log header sync", newFakeDisk(), diskFault{op: opSync, name: walName + ".tmp"}},
		{"torn tail cut", logged(), diskFault{op: opTruncate, name: walName}},
		{"log reopen", logged(), diskFault{op: opAppend, name: walName}},
	} {
		c.fault.err = syscall.EIO
		c.disk.schedule(c.fault)
		if _, err := newServer(fakeConfig(), c.disk); err == nil || !strings.Contains(err.Error(), "input/output error") {
			t.Errorf("%s fails: recovery = %v, want the I/O error", c.name, err)
		}
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testConfig(filepath.Join(file, "state"))); err == nil {
		t.Error("New made a state directory under a regular file")
	}
}

// TestRecoverShortLog: a wal.log whose intact prefix is shorter than
// its header — an empty file, or a crash that tore the header's
// creation — recovers to a fresh log, not to records appended under no
// header. A submit acked on it is found after a crash, under every
// crash model and namespace landing.
func TestRecoverShortLog(t *testing.T) {
	fresh := newFakeDisk()
	newFakeServer(t, fakeConfig(), fresh)
	header, err := fresh.ReadFile(filepath.Join(fakeDir, walName))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		log  []byte
	}{
		{"empty", nil},
		{"torn header", header[:len(header)/2]},
	} {
		t.Run(c.name, func(t *testing.T) {
			disk := newFakeDisk()
			ino := &inode{data: slices.Clone(c.log), synced: slices.Clone(c.log)}
			disk.names[filepath.Join(fakeDir, walName)] = ino
			disk.durable[filepath.Join(fakeDir, walName)] = ino
			s := newFakeServer(t, fakeConfig(), disk)
			if rec := serve(s, "POST", "/v1/submit", []byte(`{"job_id":7,"mode":"opportunistic","cores":1,"ways":2,"arrival":5}`)); rec.Code != http.StatusOK {
				t.Fatalf("submit: status %d %s", rec.Code, rec.Body)
			}
			img := imageOf(disk)
			for model := 0; model < img.models(); model++ {
				for pat := 0; pat < img.landings(); pat++ {
					s2, err := newServer(fakeConfig(), img.restore(model, pat, nil))
					if err != nil {
						t.Fatalf("model %d, landing %d: recovery failed: %v", model, pat, err)
					}
					var env snapEnvelope
					if err := json.Unmarshal(serve(s2, "GET", "/v1/snapshot", nil).Body.Bytes(), &env); err != nil {
						t.Fatal(err)
					}
					if _, ok := env.Jobs[7]; !ok {
						t.Errorf("model %d, landing %d: GET /v1/snapshot lacks the acked job 7: %+v", model, pat, env.Jobs)
					}
				}
			}
		})
	}
}

// TestDrainDiskErrors: a drain whose final snapshot fails, or whose log
// does not close cleanly, answers 500 — and is still a drain: the
// daemon decides nothing more.
func TestDrainDiskErrors(t *testing.T) {
	for _, c := range []struct {
		name  string
		fault diskFault
	}{
		{"final snapshot", diskFault{op: opCreate, name: snapName + ".tmp"}},
		// The drain's rotation leaves the new log under wal.log; closing
		// it is the first sync of a file of that name.
		{"closing the log", diskFault{op: opSync, name: walName}},
	} {
		d := newFakeDisk()
		s := newFakeServer(t, fakeConfig(), d)
		c.fault.err = syscall.EIO
		d.schedule(c.fault)
		if rec := serve(s, "POST", "/v1/drain", nil); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "input/output error") {
			t.Errorf("drain with a failing %s: status %d %s, want 500 naming the error", c.name, rec.Code, rec.Body)
		}
		if rec := serve(s, "POST", "/v1/submit", []byte(`{"job_id":1,"mode":"opportunistic","cores":1,"ways":2,"arrival":5}`)); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("submit after a failed drain (%s): status %d, want 503", c.name, rec.Code)
		}
	}
}

package server

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// TestAppendFailureFailsClosed is the WAL-failure contract. The daemon
// decides, logs, then applies, so a failed append leaves memory exactly
// as it was before the request: the state bytes do not move, and the
// next grant takes the reservation id the failed one would have. The
// file may still end in a torn or half-durable frame for the failed
// sequence number, so the daemon poisons the log on any append error and
// refuses submit, negotiate and cancel until a snapshot + rotation has
// re-anchored disk to memory — tried at once, and again on every refused
// request. Two crashes check it: one after a transient error the
// immediate re-anchor absorbed, one after a degraded interval, a late
// re-anchor and further acked operations.
func TestAppendFailureFailsClosed(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Nodes = 1
	s, ts := newTestServer(t, cfg)

	// The injected faults, read and written under s.mu (failStep runs
	// with it held).
	var failAppends int
	var failSnapshots bool
	inject := func(s *Server, appends int, snapshots bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		failAppends, failSnapshots = appends, snapshots
		s.failStep = func(at string) error {
			switch {
			case at == stepWALAppend && failAppends > 0:
				failAppends--
				return errors.New("injected append failure")
			case at == stepSnapWrite && failSnapshots:
				return errors.New("injected snapshot failure")
			}
			return nil
		}
	}
	submit := func(base string, id int) (int, SubmitResponse) {
		t.Helper()
		var resp SubmitResponse
		code := postJSON(t, base+"/v1/submit", SubmitRequest{JobID: id, Mode: "strict", Cores: 1, Ways: 2,
			TW: 1000, DeadlineIn: 100_000, Arrival: int64(10 * id)}, &resp)
		return code, resp
	}
	mustAdmit := func(base string, id, wantRes int) {
		t.Helper()
		if code, resp := submit(base, id); code != http.StatusOK || !resp.Accepted || resp.ReservationID != wantRes {
			t.Fatalf("submit %d: status %d, %+v; want it acked with reservation_id %d", id, code, resp, wantRes)
		}
	}
	// crash abandons the daemon behind base — no drain, no request in
	// flight — recovers the directory, and requires the recovered bytes to
	// be the acked ones.
	crash := func(base string) (*Server, string) {
		t.Helper()
		before := getBytes(t, base+"/v1/snapshot")
		s2, ts2 := newTestServer(t, cfg)
		if after := getBytes(t, ts2.URL+"/v1/snapshot"); !bytes.Equal(before, after) {
			t.Fatalf("recovered state differs from the acked state:\npre:  %s\npost: %s", before, after)
		}
		return s2, ts2.URL
	}

	// unchanged requires the state bytes to be what they were before a
	// request that failed.
	unchanged := func(base, what string, before []byte) {
		t.Helper()
		if after := getBytes(t, base+"/v1/snapshot"); !bytes.Equal(before, after) {
			t.Fatalf("%s left a trace in the state:\nbefore: %s\nafter:  %s", what, before, after)
		}
	}

	// One transient append error: the request it hit answers 500 and
	// changed nothing, the re-anchor lands at once, and the next grant is
	// acked with the id the failed one would have taken.
	mustAdmit(ts.URL, 1, 1)
	before := getBytes(t, ts.URL+"/v1/snapshot")
	inject(s, 1, false)
	if code, _ := submit(ts.URL, 2); code != http.StatusInternalServerError {
		t.Fatalf("submit 2 on a failing append: status %d, want 500", code)
	}
	unchanged(ts.URL, "a submit whose append failed", before)
	mustAdmit(ts.URL, 3, 2)
	h := getHealth(t, ts.URL)
	s, base := crash(ts.URL)
	if h.WALDegraded || !strings.Contains(h.LastWALError, "injected append failure") || h.Snapshots != 1 {
		t.Fatalf("after a transient append error: %+v", h)
	}

	// An append error on a disk that cannot take the snapshot either: the
	// log stays poisoned and every mutating endpoint refuses, retrying the
	// re-anchor each time.
	before = getBytes(t, base+"/v1/snapshot")
	inject(s, 1, true)
	if code := postJSON(t, base+"/v1/cancel", CancelRequest{JobID: 1, Now: 50}, nil); code != http.StatusInternalServerError {
		t.Fatalf("cancel on a failing append: status %d, want 500", code)
	}
	unchanged(base, "a cancel whose append failed", before)
	for name, refused := range map[string]func() int{
		"submit": func() int { code, _ := submit(base, 4); return code },
		"negotiate": func() int {
			return postJSON(t, base+"/v1/negotiate", SubmitRequest{JobID: 4, Mode: "strict", Cores: 1, Ways: 2,
				TW: 1000, DeadlineIn: 100_000, Arrival: 40}, nil)
		},
		"cancel": func() int { return postJSON(t, base+"/v1/cancel", CancelRequest{JobID: 1, Now: 50}, nil) },
	} {
		if code := refused(); code != http.StatusServiceUnavailable {
			t.Errorf("%s while the log is poisoned: status %d, want 503", name, code)
		}
	}
	unchanged(base, "requests refused while the log is poisoned", before)
	h = getHealth(t, base)
	if !h.WALDegraded || !strings.Contains(h.LastWALError, "injected append failure") ||
		h.SnapshotFailures < 4 || h.Snapshots != 0 || h.Jobs != 2 {
		t.Fatalf("while the log is poisoned: %+v", h)
	}

	// The disk heals: the next request's re-anchor succeeds and the same
	// request is decided and acked, with the next id the node has. Nothing
	// refused left a trace — job 1 is still there to cancel, jobs 2 and 4
	// are not duplicates.
	inject(s, 0, false)
	mustAdmit(base, 4, 3)
	if h = getHealth(t, base); h.WALDegraded || h.Snapshots != 1 {
		t.Fatalf("after the re-anchor: %+v", h)
	}
	if code := postJSON(t, base+"/v1/cancel", CancelRequest{JobID: 1, Now: 60}, nil); code != http.StatusOK {
		t.Fatalf("cancel after the re-anchor: status %d", code)
	}
	mustAdmit(base, 2, 4)
	crash(base)
}

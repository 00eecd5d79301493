package server

// The paths only an edge of the input reaches: a waited-for slot, a body
// that fails mid-read, state directories that do not recover, a clock
// behind the stamps clients sent.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"cmpqos/internal/qos"
)

// TestAcquireWaitsForASlot: with every slot taken, a request waits up to
// its bound for one: it gets a slot freed in time, and gives up at the
// bound or when the client goes away.
func TestAcquireWaitsForASlot(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxInflight = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := httptest.NewRequest("POST", "/v1/submit", nil)
	if !s.acquire(req, 0) {
		t.Fatal("the free slot was refused")
	}
	if s.acquire(req, 1) {
		t.Error("a slot appeared from nowhere")
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		<-s.sem
	}()
	if !s.acquire(req, 5_000) {
		t.Error("a slot freed during the wait was not taken")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s.acquire(req.WithContext(ctx), 5_000) {
		t.Error("a request whose client left got a slot")
	}
	<-s.sem // Close waits for the slots
}

// TestBodyReadErrorIsRefused: a body whose read fails after a whole
// request arrived is a 400, and nothing is logged.
func TestBodyReadErrorIsRefused(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := httptest.NewRecorder()
	body := io.MultiReader(strings.NewReader(`{"job_id":1,"mode":"opportunistic","cores":1,"ways":2}`), iotest.ErrReader(os.ErrClosed))
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/submit", body))
	if rec.Code != http.StatusBadRequest || walSeq(t, s) != 0 {
		t.Errorf("failed body read: status %d, wal_seq %d; want 400 and nothing logged", rec.Code, walSeq(t, s))
	}
}

// TestNegotiateRefusals: negotiate refuses what submit refuses, and a
// drained daemon sheds it.
func TestNegotiateRefusals(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, c := range []struct{ name, body string }{
		{"unknown mode", `{"job_id":1,"mode":"lenient","cores":1,"ways":2,"tw":1000}`},
		{"both deadlines", `{"job_id":1,"mode":"strict","cores":1,"ways":2,"tw":1000,"deadline":9000,"deadline_in":5000}`},
	} {
		if rec := serve(s, "POST", "/v1/negotiate", []byte(c.body)); rec.Code != http.StatusBadRequest {
			t.Errorf("negotiate, %s: status %d, want 400", c.name, rec.Code)
		}
	}
	if rec := serve(s, "POST", "/v1/drain", nil); rec.Code != http.StatusOK {
		t.Fatalf("drain: status %d", rec.Code)
	}
	rec := serve(s, "POST", "/v1/negotiate", []byte(`{"job_id":1,"mode":"strict","cores":1,"ways":2,"tw":1000}`))
	var shed struct{ Reason string }
	if json.Unmarshal(rec.Body.Bytes(), &shed); rec.Code != http.StatusServiceUnavailable || shed.Reason != "draining" {
		t.Errorf("negotiate after drain: status %d %s, want 503 draining, as submit answers", rec.Code, rec.Body)
	}
}

// TestClockNeverRunsBehindAStamp: a request without an arrival stamp is
// stamped no earlier than the latest stamp a client sent.
func TestClockNeverRunsBehindAStamp(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const ahead = int64(1) << 50
	if rec := serve(s, "POST", "/v1/submit", []byte(`{"job_id":1,"mode":"opportunistic","cores":1,"ways":2,"arrival":1125899906842624}`)); rec.Code != http.StatusOK {
		t.Fatalf("stamped submit: status %d: %s", rec.Code, rec.Body)
	}
	rec := serve(s, "POST", "/v1/submit", []byte(`{"job_id":2,"mode":"strict","cores":1,"ways":2,"tw":1000}`))
	var ans SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil || !ans.Accepted || ans.Start < ahead {
		t.Errorf("unstamped submit = %s (%v), want a start at or after %d", rec.Body, err, ahead)
	}
}

// TestStateThatDoesNotRecover: a daemon refuses to start on a state
// directory it cannot recover, naming why, and without a directory.
func TestStateThatDoesNotRecover(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without a directory started")
	}
	walWith := func(recs ...qos.WALRecord) func(dir string) {
		return func(dir string) {
			w, err := qos.CreateWAL(filepath.Join(dir, walName), false)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	file := func(name, data string) func(dir string) {
		return func(dir string) {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name  string
		plant func(dir string)
		want  string
	}{
		{"unknown op", walWith(qos.WALRecord{Seq: 1, Op: "rename", JobID: 1}), `unknown op "rename"`},
		{"cancel of an unknown job", walWith(qos.WALRecord{Seq: 1, Op: qos.WALCancel, JobID: 7}), "cancel of unknown job 7"},
		{"foreign log", file(walName, "PK\x03\x04 not a log at all"), "not a cmpqos WAL"},
		{"undecodable snapshot", file(snapName, "{"), "decoding " + snapName},
		{"snapshot without nodes", file(snapName, `{"version":1,"nodes":[]}`), "snapshot has no nodes"},
		{"snapshot with a bad node", file(snapName, `{"version":1,"nodes":[{"version":99}]}`), "restoring node 0"},
	} {
		dir := t.TempDir()
		c.plant(dir)
		if _, err := New(testConfig(dir)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

package load

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cmpqos/internal/server"
	"cmpqos/internal/splitmix"
)

func TestRunAgainstDaemon(t *testing.T) {
	s, err := server.New(server.Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []Case{
		{Name: "strict", Mode: "strict", Cores: 1, Ways: 4, TW: 1000, DeadlineIn: 1 << 40},
		{Name: "opportunistic", Mode: "opportunistic", Cores: 1, Ways: 2},
	}
	rep, err := Run(context.Background(), cases, Config{
		BaseURL: ts.URL, Requests: 60, Concurrency: 4, Cancel: true, Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent int
	for _, c := range rep.Cases {
		sent += c.Sent
	}
	if sent != 60 {
		t.Errorf("sent %d, want 60", sent)
	}
	if rep.Admitted == 0 {
		t.Fatal("nothing admitted against a healthy daemon")
	}
	if rep.Admitted != len(rep.Grants) {
		t.Errorf("%d admitted but %d grants", rep.Admitted, len(rep.Grants))
	}
	for _, g := range rep.Grants {
		if !g.Cancelled {
			t.Errorf("job %d not cancelled despite Cancel: true", g.JobID)
		}
	}
	// Strict admissions carry reservations and latency percentiles.
	for _, c := range rep.Cases {
		if c.Name == "strict" && c.Admitted > 0 && (c.P50 <= 0 || c.P99 < c.P50) {
			t.Errorf("strict percentiles malformed: p50=%v p99=%v", c.P50, c.P99)
		}
	}
}

// TestRunRetriesShedThenSucceeds pins the retry ladder: 503s are
// retried with backoff until the daemon answers.
func TestRunRetriesShedThenSucceeds(t *testing.T) {
	var attempt atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempt.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"accepted": true, "node": 0, "mode": "strict", "reservation_id": 1, "seq": 1,
		})
	}))
	defer stub.Close()
	rep, err := Run(context.Background(), []Case{{Name: "s", Mode: "strict", Cores: 1, Ways: 1, TW: 10, DeadlineIn: 100}},
		Config{BaseURL: stub.URL, Requests: 1, Concurrency: 1, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 1 || rep.Shed != 2 || rep.Cases[0].Retries != 2 {
		t.Fatalf("admitted=%d shed=%d retries=%d, want 1/2/2", rep.Admitted, rep.Shed, rep.Cases[0].Retries)
	}
}

func TestRunUnreachableDaemon(t *testing.T) {
	rep, err := Run(context.Background(), []Case{{Name: "s", Mode: "strict", Cores: 1, Ways: 1, TW: 10, DeadlineIn: 100}},
		Config{BaseURL: "http://127.0.0.1:1", Requests: 3, Concurrency: 1, Retries: 1,
			Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Admitted != 0 || rep.Rejected != 0 {
		t.Fatalf("answers from an unreachable daemon: %+v", rep)
	}
	if rep.Unavailable < 3 {
		t.Errorf("unavailable = %d, want >= 3 (one per request)", rep.Unavailable)
	}
}

// TestBackoffShape pins the retry-delay contract: capped exponential
// with jitter in [d/2, d), deterministic per seed.
func TestBackoffShape(t *testing.T) {
	r1 := splitmix.New(42)
	r2 := splitmix.New(42)
	capped := false
	for try := 0; try < 10; try++ {
		d := backoffBase << uint(try)
		if d > backoffCap {
			d, capped = backoffCap, true
		}
		got := backoff(try, &r1)
		if got < d/2 || got >= d {
			t.Errorf("try %d: backoff %v outside [%v, %v)", try, got, d/2, d)
		}
		if got != backoff(try, &r2) {
			t.Errorf("try %d: backoff not deterministic per seed", try)
		}
	}
	if !capped {
		t.Error("no try reached the cap")
	}
}

// TestRunCountsEveryAnswer: each kind of answer lands in its counter — a
// degraded grant, a reject, a conflict, an answer that does not decode,
// a server error — and a cancel whose answer is lost leaves the grant's
// liveness unknown.
func TestRunCountsEveryAnswer(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cancel" {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close() // the cancel's answer is lost
			return
		}
		var req submitWire
		json.NewDecoder(r.Body).Decode(&req)
		switch req.JobID {
		case jobIDBase:
			json.NewEncoder(w).Encode(map[string]any{"accepted": true, "mode": "elastic", "degraded": true, "seq": 1})
		case jobIDBase + 1:
			json.NewEncoder(w).Encode(map[string]any{"accepted": false, "reason": "full"})
		case jobIDBase + 2:
			w.WriteHeader(http.StatusConflict)
		case jobIDBase + 3:
			w.Write([]byte("{not json"))
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer stub.Close()
	rep, err := Run(context.Background(), []Case{{Name: "s", Mode: "strict", Cores: 1, Ways: 1, TW: 10, DeadlineIn: 100}},
		Config{BaseURL: stub.URL, Requests: 5, Concurrency: 1, Cancel: true})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cases[0]
	if c.Admitted != 1 || c.Degraded != 1 || c.Rejected != 1 || c.Conflicts != 1 || c.Unavailable != 2 {
		t.Errorf("case report %+v, want 1 admitted (degraded), 1 rejected, 1 conflict, 2 unavailable", c)
	}
	if len(rep.Grants) != 1 || rep.Grants[0].Cancelled || !rep.Grants[0].CancelUnknown {
		t.Errorf("grants %+v, want one whose cancel is unknown", rep.Grants)
	}
}

// TestCancelOutcomes: a cancel's answer decides what the audit may
// expect of its grant — acked (gone), refused with a definite 500 or a
// 404 (still live), or refused with a 500 whose outcome is unknown
// (either way, like a lost answer).
func TestCancelOutcomes(t *testing.T) {
	answers := []struct {
		status            int
		body              string
		cancelled, unsure bool
	}{
		{http.StatusOK, `{"cancelled":true}`, true, false},
		{http.StatusInternalServerError, `{"error":"write wal.log: input/output error"}`, false, false},
		{http.StatusInternalServerError, `{"error":"write wal.log: input/output error (outcome unknown: …)","outcome":"unknown"}`, false, true},
		{http.StatusNotFound, `{"error":"job 3 is not admitted"}`, false, false},
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req submitWire
		json.NewDecoder(r.Body).Decode(&req)
		if r.URL.Path == "/v1/cancel" {
			a := answers[req.JobID-jobIDBase]
			w.WriteHeader(a.status)
			w.Write([]byte(a.body))
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"accepted": true, "mode": "strict", "seq": 1})
	}))
	defer stub.Close()
	rep, err := Run(context.Background(), []Case{{Name: "s", Mode: "strict", Cores: 1, Ways: 1, TW: 10, DeadlineIn: 100}},
		Config{BaseURL: stub.URL, Requests: len(answers), Concurrency: 1, Cancel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grants) != len(answers) {
		t.Fatalf("%d grants, want %d", len(rep.Grants), len(answers))
	}
	for _, g := range rep.Grants {
		a := answers[g.JobID-jobIDBase]
		if g.Cancelled != a.cancelled || g.CancelUnknown != a.unsure {
			t.Errorf("cancel answered %d %s: grant %+v, want cancelled %v, unknown %v", a.status, a.body, g, a.cancelled, a.unsure)
		}
	}
}

// TestRunRefusesAndStops: Run refuses a load with no cases or no daemon,
// sends nothing under a canceled context, and stops retrying when it is
// canceled mid-backoff.
func TestRunRefusesAndStops(t *testing.T) {
	cases := []Case{{Name: "s", Mode: "strict", Cores: 1, Ways: 1, TW: 10, DeadlineIn: 100}}
	if _, err := Run(context.Background(), nil, Config{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Error("Run with no cases started")
	}
	if _, err := Run(context.Background(), cases, Config{}); err == nil {
		t.Error("Run with no daemon address started")
	}
	if _, err := Run(context.Background(), cases, Config{BaseURL: "http://[::1"}); err != nil {
		t.Errorf("a malformed address is the daemon's unavailability, not Run's error: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, cases, Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil || rep.Cases[0].Sent != 0 {
		t.Errorf("canceled before the first request: %+v, %v; want nothing sent", rep, err)
	}
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer shed.Close()
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rep, err = Run(ctx, cases, Config{BaseURL: shed.URL, Requests: 1, Concurrency: 1, Retries: 100})
	if err != nil || rep.Cases[0].Retries == 100 {
		t.Errorf("canceled mid-backoff: %+v, %v; want the retries cut short", rep, err)
	}
}

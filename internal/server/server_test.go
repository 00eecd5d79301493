package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cmpqos/internal/qos"
)

func testConfig(dir string) Config {
	return Config{
		Dir:      dir,
		Capacity: qos.ResourceVector{Cores: 4, CacheWays: 16},
		Nodes:    2,
		NoSync:   true, // tests exercise crash logic via reopen, not power loss
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitN drives n deterministic submissions (every third step also
// cancels the oldest still-admitted job) with explicit arrivals so
// state is reproducible.
func submitN(t *testing.T, base string, n int, idBase int) {
	t.Helper()
	var admitted []int
	for i := 0; i < n; i++ {
		id := idBase + i
		req := SubmitRequest{
			JobID:      id,
			Mode:       []string{"strict", "elastic", "opportunistic"}[i%3],
			Slack:      0.05,
			Cores:      1,
			Ways:       7,
			TW:         1000,
			DeadlineIn: 20000,
			Arrival:    int64(1 + i*100),
		}
		if req.Mode == "opportunistic" {
			req.TW, req.DeadlineIn = 0, 0
		}
		var resp SubmitResponse
		if code := postJSON(t, base+"/v1/submit", req, &resp); code != http.StatusOK {
			t.Fatalf("submit %d: status %d", id, code)
		}
		if resp.Accepted {
			admitted = append(admitted, id)
		}
		if i%3 == 0 && i > 0 && len(admitted) > 0 {
			victim := admitted[0]
			admitted = admitted[1:]
			var cr CancelResponse
			if code := postJSON(t, base+"/v1/cancel", CancelRequest{JobID: victim, Now: int64(1 + i*100)}, &cr); code != http.StatusOK {
				t.Fatalf("cancel %d: status %d", victim, code)
			}
		}
	}
}

func TestSubmitCancelLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t.TempDir()))
	var resp SubmitResponse
	req := SubmitRequest{JobID: 1, Mode: "strict", Cores: 1, Ways: 7, TW: 1000, DeadlineIn: 5000, Arrival: 10}
	if code := postJSON(t, ts.URL+"/v1/submit", req, &resp); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if !resp.Accepted || resp.ReservationID == 0 || resp.Mode != "strict" {
		t.Fatalf("unexpected decision %+v", resp)
	}
	// Duplicate admission of a live job is refused — the no-double-admit
	// contract the chaos harness leans on.
	if code := postJSON(t, ts.URL+"/v1/submit", req, nil); code != http.StatusConflict {
		t.Fatalf("duplicate submit: status %d, want 409", code)
	}
	var cr CancelResponse
	if code := postJSON(t, ts.URL+"/v1/cancel", CancelRequest{JobID: 1, Now: 500}, &cr); code != http.StatusOK || !cr.Cancelled {
		t.Fatalf("cancel: status %d resp %+v", code, cr)
	}
	if code := postJSON(t, ts.URL+"/v1/cancel", CancelRequest{JobID: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("cancel of unknown job: status %d, want 404", code)
	}
	// After cancel the job can be admitted again.
	if code := postJSON(t, ts.URL+"/v1/submit", req, &resp); code != http.StatusOK || !resp.Accepted {
		t.Fatalf("re-submit after cancel: status %d resp %+v", code, resp)
	}
}

// TestNegotiateOffers pins the offer list: every node's counter-offers,
// best first in qos.CompareOffers order, so the first one is the offer
// GAC.NegotiateBest picks.
func TestNegotiateOffers(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t.TempDir()))
	// Fill the ways so a wide request must concede something.
	for i := 0; i < 2; i++ {
		req := SubmitRequest{JobID: 100 + i, Mode: "strict", Cores: 1, Ways: 8, TW: 10000, DeadlineIn: 10000, Arrival: 1}
		var resp SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/submit", req, &resp); code != http.StatusOK || !resp.Accepted {
			t.Fatalf("setup submit %d: %d %+v", i, code, resp)
		}
	}
	var out struct {
		Offers []OfferJSON `json:"offers"`
	}
	req := SubmitRequest{JobID: 200, Mode: "strict", Cores: 1, Ways: 9, TW: 5000, DeadlineIn: 5000, Arrival: 2}
	if code := postJSON(t, ts.URL+"/v1/negotiate", req, &out); code != http.StatusOK {
		t.Fatalf("negotiate: status %d", code)
	}
	if len(out.Offers) < 2 {
		t.Fatalf("%d offers for a constrained request on two nodes, want several: %+v", len(out.Offers), out.Offers)
	}
	kinds := map[string]qos.OfferKind{}
	for _, k := range []qos.OfferKind{qos.OfferLaterDeadline, qos.OfferFewerWays, qos.OfferOpportunistic} {
		kinds[k.String()] = k
	}
	offer := func(o OfferJSON) qos.Offer {
		k, ok := kinds[o.Kind]
		if !ok {
			t.Fatalf("unknown offer kind %q", o.Kind)
		}
		return qos.Offer{Kind: k, Start: o.Start, Resources: qos.ResourceVector{Cores: o.Cores, CacheWays: o.Ways}}
	}
	for i := 1; i < len(out.Offers); i++ {
		a, b := out.Offers[i-1], out.Offers[i]
		if c := qos.CompareOffers(offer(a), offer(b)); c > 0 || c == 0 && a.Node > b.Node {
			t.Errorf("offers %d and %d out of order: %+v before %+v", i-1, i, a, b)
		}
	}
	rum := qos.RUM{Resources: qos.ResourceVector{Cores: 1, CacheWays: 9}, MaxWallClock: 5000, Deadline: 5002}
	s.mu.Lock()
	node, best, ok := s.gac.NegotiateBest(qos.Request{JobID: 200, Target: rum, Mode: qos.Strict(), Arrival: 2})
	s.mu.Unlock()
	want := OfferJSON{Node: node, Kind: best.Kind.String(), Cores: best.Resources.Cores, Ways: best.Resources.CacheWays,
		Mode: modeName(best.Mode), Start: best.Start, Deadline: best.Deadline}
	if !ok || out.Offers[0] != want {
		t.Errorf("first offer %+v, GAC.NegotiateBest's %+v", out.Offers[0], want)
	}
}

// TestCrashRecoveryByteIdentity is the headline robustness contract:
// kill -9 (no drain, no final snapshot — the daemon is simply
// abandoned) followed by restart must reproduce the admission state
// byte for byte, including after a mid-stream snapshot rotation.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	for _, snapEvery := range []int{1 << 20, 5} {
		t.Run(fmt.Sprintf("snapEvery=%d", snapEvery), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig(dir)
			cfg.SnapshotEvery = snapEvery
			_, ts := newTestServer(t, cfg)
			submitN(t, ts.URL, 17, 1000)
			before := getBytes(t, ts.URL+"/v1/snapshot")
			ts.Close() // abandon: nothing flushed beyond per-op WAL writes

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
				t.Fatalf("recovered state differs from pre-crash state:\npre:  %s\npost: %s", before, after)
			}
		})
	}
}

// TestCrashRecoveryTornTail chops a partially-written record off the
// WAL: recovery must land exactly on the state as of the last intact
// record, and the daemon must keep accepting work afterwards.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SnapshotEvery = 1 << 20
	_, ts := newTestServer(t, cfg)

	var states [][]byte
	for i := 0; i < 8; i++ {
		req := SubmitRequest{JobID: 500 + i, Mode: "strict", Cores: 1, Ways: 4, TW: 1000, DeadlineIn: 50000, Arrival: int64(1 + i*10)}
		var resp SubmitResponse
		if code := postJSON(t, ts.URL+"/v1/submit", req, &resp); code != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, code)
		}
		states = append(states, getBytes(t, ts.URL+"/v1/snapshot"))
	}
	ts.Close()

	// Tear the last record: cut 3 bytes off the log tail.
	walPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery after torn tail: %v", err)
	}
	defer s2.Close()
	s2.mu.Lock()
	after, err := s2.encodeStateLocked()
	s2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(states[6], after) {
		t.Fatalf("torn-tail recovery did not land on the last intact record's state")
	}

	// And the log keeps working: the lost job can be admitted again.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var resp SubmitResponse
	req := SubmitRequest{JobID: 507, Mode: "strict", Cores: 1, Ways: 4, TW: 1000, DeadlineIn: 50000, Arrival: 100}
	if code := postJSON(t, ts2.URL+"/v1/submit", req, &resp); code != http.StatusOK || !resp.Accepted {
		t.Fatalf("submit after torn-tail recovery: %d %+v", code, resp)
	}
}

// TestReplayDivergenceDetected plants a WAL record whose logged outcome
// cannot reproduce; recovery must fail loudly instead of silently
// diverging.
func TestReplayDivergenceDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := qos.CreateWAL(filepath.Join(dir, "wal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Append(qos.WALRecord{
		Seq: 1, Op: qos.WALAdmit, JobID: 1,
		Mode:    qos.Strict(),
		RUM:     qos.RUM{Resources: qos.PresetMedium(), MaxWallClock: 1000, Deadline: 5000},
		Arrival: 1, Node: 0, FinalMode: qos.Strict(),
		Dec: qos.Decision{Accepted: true, Start: 999_999, ReservationID: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(testConfig(dir)); err == nil {
		t.Fatal("divergent WAL accepted")
	}
}

func TestSnapshotEnvelopeVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	body := `{"version": 99, "wal_seq": 0, "clock": 0, "nodes": [], "jobs": {}}`
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(testConfig(dir))
	var ve *qos.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *qos.VersionError, got %v", err)
	}
}

// TestHealthzAnswersDuringFsync: healthz reads the copy the last locked
// section published, not the state under mu, so it answers while a
// submit holds mu through a stalled WAL fsync, and it reports the state
// as it stood before that submit.
func TestHealthzAnswersDuringFsync(t *testing.T) {
	disk := newFakeDisk()
	s := newFakeServer(t, fakeConfig(), disk)
	defer s.Close()
	release := disk.holdSyncs()
	defer release()
	submitted := make(chan int, 1)
	go func() {
		submitted <- serve(s, "POST", "/v1/submit", []byte(`{"job_id":1,"mode":"strict","cores":1,"ways":2,"tw":1000,"deadline_in":50000,"arrival":1}`)).Code
	}()
	// Wait until the submit holds mu, stalled in its fsync.
	for deadline := time.Now().Add(5 * time.Second); s.mu.TryLock(); {
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the submit never took the daemon's lock")
		}
		time.Sleep(time.Millisecond)
	}
	healthz := make(chan *httptest.ResponseRecorder, 1)
	go func() { healthz <- serve(s, "GET", "/healthz", nil) }()
	select {
	case rec := <-healthz:
		var h Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || rec.Code != http.StatusOK || h.WALSeq != 0 || h.Jobs != 0 {
			t.Errorf("healthz during the fsync: status %d, %+v, %v; want 200 with wal_seq 0 and no jobs", rec.Code, h, err)
		}
	case <-time.After(time.Second):
		t.Fatal("healthz did not answer within 1 s while a WAL fsync was held")
	}
	release()
	if code := <-submitted; code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	if seq := walSeq(t, s); seq != 1 {
		t.Errorf("healthz after the submit: wal_seq %d, want 1", seq)
	}
}

// TestUndeclaredMemoryNeverBlocks: a default daemon's nodes declare no
// memory, so a request's mem_mb — here math.MaxInt64 — constrains
// nothing: two Strict {1 core, 7 ways} jobs both start at their
// arrival on the one node. While the profile summed undeclared
// dimensions, the first one's memory serialized the second behind it.
func TestUndeclaredMemoryNeverBlocks(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for id := 1; id <= 2; id++ {
		body := fmt.Sprintf(`{"job_id":%d,"mode":"strict","cores":1,"ways":7,"mem_mb":%d,"tw":1000,"deadline_in":3000,"arrival":1}`, id, math.MaxInt64)
		rec := serve(s, "POST", "/v1/submit", []byte(body))
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || !resp.Accepted || resp.Start != 1 {
			t.Fatalf("job %d: status %d, %s; want accepted at its arrival, 1", id, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestNewRefusesCapacityAboveBound: a node capacity above
// qos.MaxCapacity, or a negative one, is an error from New, not a
// panic in the first NewLAC.
func TestNewRefusesCapacityAboveBound(t *testing.T) {
	for _, c := range []qos.ResourceVector{{Cores: 4, CacheWays: qos.MaxCapacity + 1}, {Cores: -1, CacheWays: 16}} {
		cfg := testConfig(t.TempDir())
		cfg.Capacity = c
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("New accepted capacity %v", c)
		}
	}
}

// TestOverloadShedsBounded pins the overload contract: with the
// admission queue saturated, excess submissions get 503 within their
// wait budget instead of queueing without bound. The queue saturates
// through the real append path: the fake disk holds the first record's
// fsync, so its request keeps the daemon's lock, and the other slot
// holders wait on that lock with their slots taken.
func TestOverloadShedsBounded(t *testing.T) {
	cfg := fakeConfig()
	cfg.MaxInflight = 4
	cfg.DegradeAt = 1.0 // isolate the queue-shed rung
	cfg.MaxWait = 50 * time.Millisecond
	disk := newFakeDisk()
	s := newFakeServer(t, cfg, disk)
	defer s.Close()
	release := disk.holdSyncs()
	defer release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 20
	codes := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := SubmitRequest{JobID: 9000 + i, Mode: "strict", Cores: 1, Ways: 4,
				TW: 1000, DeadlineIn: 1 << 40, Arrival: int64(1 + i), WaitMS: 5}
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(b))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	// No slot comes free while the fsync is held, so every request past
	// the slots sheds within its wait budget: wait for those answers,
	// confirm the queue stands full at its bound, then release the fsync.
	for i := 0; i < clients-cfg.MaxInflight; i++ {
		select {
		case c := <-codes:
			if c != http.StatusServiceUnavailable {
				t.Fatalf("answer %d with the queue full: status %d, want 503", i, c)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d requests shed; the rest still wait", i, clients-cfg.MaxInflight)
		}
	}
	if depth := len(s.sem); depth != cap(s.sem) {
		t.Fatalf("queue depth %d with the fsync held, want its cap %d", depth, cap(s.sem))
	}
	if got := s.nShed.Load(); got != clients-int64(cfg.MaxInflight) {
		t.Errorf("shed counter %d, want %d", got, clients-cfg.MaxInflight)
	}
	release()
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Errorf("a slot holder answered %d after the fsync landed, want 200", c)
		}
	}
}

// TestDegradeLadder pins the renegotiation rung: past the degrade
// watermark, an infeasible Strict request lands in a weaker mode
// (flagged Degraded) and scavenger requests are shed outright.
func TestDegradeLadder(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Nodes = 1
	cfg.MaxInflight = 4
	cfg.DegradeAt = 0.25 // one held slot is enough to trip the ladder
	_, ts := newTestServer(t, cfg)

	// Fill the cache: a 9-way hold for the whole window.
	var resp SubmitResponse
	a := SubmitRequest{JobID: 1, Mode: "strict", Cores: 1, Ways: 9, TW: 1000, DeadlineIn: 1000, Arrival: 1}
	if code := postJSON(t, ts.URL+"/v1/submit", a, &resp); code != http.StatusOK || !resp.Accepted {
		t.Fatalf("setup: %d %+v", code, resp)
	}
	// A second 9-way Strict job with the same tight deadline cannot fit
	// as Strict or Elastic — the ladder should land it Opportunistic.
	b := SubmitRequest{JobID: 2, Mode: "strict", Cores: 1, Ways: 9, TW: 1000, DeadlineIn: 1000, Arrival: 1}
	if code := postJSON(t, ts.URL+"/v1/submit", b, &resp); code != http.StatusOK {
		t.Fatalf("degraded submit: status %d", code)
	}
	if !resp.Accepted || !resp.Degraded || resp.Mode != "opportunistic" {
		t.Fatalf("want degraded opportunistic acceptance, got %+v", resp)
	}
	// Scavengers are shed first under pressure.
	c := SubmitRequest{JobID: 3, Mode: "opportunistic", Cores: 1, Ways: 2, Arrival: 2}
	if code := postJSON(t, ts.URL+"/v1/submit", c, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("opportunistic under pressure: status %d, want 503", code)
	}
}

// TestConcurrentSubmitCancel exercises the locking under parallel
// clients (meaningful under -race, which CI runs over the full suite).
func TestConcurrentSubmitCancel(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t.TempDir()))
	const workers = 8
	const opsPer = 25
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				id := 10_000 + wkr*1000 + i
				req := SubmitRequest{JobID: id, Mode: []string{"strict", "opportunistic"}[i%2],
					Cores: 1, Ways: 4, TW: 500, DeadlineIn: 1 << 40, Negotiate: true}
				if i%2 == 1 {
					req.TW, req.DeadlineIn = 0, 0
				}
				var resp SubmitResponse
				b, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				json.NewDecoder(hr.Body).Decode(&resp)
				hr.Body.Close()
				if hr.StatusCode == http.StatusOK && resp.Accepted {
					b, _ = json.Marshal(CancelRequest{JobID: id})
					cr, err := http.Post(ts.URL+"/v1/cancel", "application/json", bytes.NewReader(b))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, cr.Body)
					cr.Body.Close()
				}
			}
		}(wkr)
	}
	// A concurrent snapshot reader must never observe a half-applied op.
	stop := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/snapshot")
			if err != nil {
				readerDone <- fmt.Errorf("snapshot mid-load: %w", err)
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				readerDone <- fmt.Errorf("snapshot mid-load: %w", err)
				return
			}
			var env snapEnvelope
			if err := json.Unmarshal(data, &env); err != nil {
				readerDone <- fmt.Errorf("snapshot mid-load decode: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Error(err)
	}

	s.mu.Lock()
	live := len(s.jobs)
	s.mu.Unlock()
	if live != 0 {
		t.Errorf("%d jobs still live after cancel-everything load", live)
	}
}

func TestDrain(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	s, ts := newTestServer(t, cfg)
	submitN(t, ts.URL, 6, 7000)
	before := getBytes(t, ts.URL+"/v1/snapshot")

	if code := postJSON(t, ts.URL+"/v1/drain", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	select {
	case <-s.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("Drained never closed")
	}
	if code := postJSON(t, ts.URL+"/v1/submit", SubmitRequest{JobID: 1, Mode: "opportunistic", Cores: 1, Ways: 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d, want 503", code)
	}
	// The drain wrote the final snapshot and closed the log: a cancel
	// after it writes nothing, and neither does a second one.
	s.mu.Lock()
	victim, jobs := -1, len(s.jobs)
	for id := range s.jobs {
		victim = id
		break
	}
	s.mu.Unlock()
	snapshots := getHealth(t, ts.URL).Snapshots
	for i := 0; i < 2; i++ {
		var shed ShedResponse
		if code := postJSON(t, ts.URL+"/v1/cancel", CancelRequest{JobID: victim, Now: 10_000}, &shed); code != http.StatusServiceUnavailable || shed.Reason != "drained" {
			t.Fatalf("cancel %d of job %d after the drain: status %d %+v, want 503 drained", i+1, victim, code, shed)
		}
	}
	if h := getHealth(t, ts.URL); h.Snapshots != snapshots || h.Jobs != jobs {
		t.Fatalf("cancels after the drain moved the state: snapshots %d → %d, %+v", snapshots, h.Snapshots, h)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: %d, want 503", resp.StatusCode)
	}
	ts.Close()

	// A drained daemon restarts into the identical state.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.mu.Lock()
	after, err := s2.encodeStateLocked()
	s2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("state after drain+restart differs")
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"cmpqos/internal/jsonenc"
	"cmpqos/internal/qos"
)

// encodeStateReflect is the reflection path encodeStateLocked used
// before the hand-written encoder: every node's snapshot buffered as a
// RawMessage, the envelope handed to json.MarshalIndent, which compacts
// and re-indents each node. It survives only as the oracle the encoder
// is held to. (The node bytes themselves are held to encoding/json in
// internal/qos, where the LAC's fields are visible.)
func (s *Server) encodeStateReflect() ([]byte, error) {
	env := snapEnvelope{
		Version: envelopeVersion,
		WALSeq:  s.seq,
		Clock:   s.maxCycle.Load(),
		Jobs:    s.jobs,
	}
	for _, lac := range s.nodes {
		var buf bytes.Buffer
		if err := lac.Snapshot(&buf); err != nil {
			return nil, err
		}
		env.Nodes = append(env.Nodes, json.RawMessage(buf.Bytes()))
	}
	return json.MarshalIndent(&env, "", "  ")
}

// snapSlacks are the Elastic slacks the streams draw from: the usual
// ones, both ends of the legal range, and values on either side of
// encoding/json's switch to exponent form.
var snapSlacks = []float64{0.05, 0.1, 1e-7, 1, 0.25, 1e-6, 9.99e-7, 1.0 / 3}

// runSnapshotStream decodes data into a diskless daemon state — a two
// byte header (fleet size, auto-downgrade) and six-byte ops: submits of
// every mode through decide() under ids of both signs and one to seven
// digits, negotiated submits, cancels, and job-table entries planted with
// arbitrary slack bits — and returns the server.
func runSnapshotStream(data []byte) *Server {
	var h [2]byte
	data = data[copy(h[:], data):]
	s := &Server{
		cfg:  Config{Nodes: 1 + int(h[0])%6, AutoDowngrade: h[1]&1 != 0, NoSync: true}.withDefaults(),
		jobs: map[int]jobEntry{},
		enc:  jsonenc.New(nil),
	}
	for i := 0; i < s.cfg.Nodes; i++ {
		s.nodes = append(s.nodes, qos.NewLAC(s.cfg.Capacity, s.lacOpts()...))
	}
	s.gac = qos.NewGAC(s.nodes...)
	var live []int
	clock := int64(1)
	for ; len(data) >= 6; data = data[6:] {
		op := data[:6]
		clock += int64(op[5])
		s.seq++
		id := int(int8(op[1])) * [4]int{1, 13, 977, 40009}[op[2]%4]
		switch kind := op[0] % 8; {
		case kind <= 4:
			if _, dup := s.jobs[id]; dup {
				continue // the daemon answers 409
			}
			mode := qos.Strict()
			switch op[3] % 4 {
			case 1:
				mode = qos.Elastic(snapSlacks[int(op[4])%len(snapSlacks)])
			case 2:
				mode = qos.Opportunistic()
			}
			tw := int64(100 + 10*int(op[4]))
			rum := qos.RUM{Resources: qos.ResourceVector{Cores: 1, CacheWays: 2 + int(op[2]>>2)%8}, MaxWallClock: tw, Deadline: clock + tw*int64(1+op[3]>>6)}
			if mode.Kind == qos.KindOpportunistic {
				rum.MaxWallClock, rum.Deadline = 0, 0
			}
			rec := qos.WALRecord{JobID: id, Mode: mode, RUM: rum, Arrival: clock,
				Negotiate: op[0]&0x10 != 0, MaxSlack: snapSlacks[int(op[3]>>2)%len(snapSlacks)]}
			s.commit(&rec, s.plan(&rec))
			if rec.Dec.Accepted {
				live = append(live, id)
			}
		case kind <= 6:
			if len(live) == 0 {
				continue
			}
			k := int(op[1]) % len(live)
			e := s.jobs[live[k]]
			s.nodes[e.Node].Complete(live[k], e.Mode, clock)
			delete(s.jobs, live[k])
			live = append(live[:k], live[k+1:]...)
		default:
			// A table entry no request can produce: any float64 with these
			// top 32 bits, NaN and ±Inf included. It is never cancelled.
			bits := uint64(op[1])<<56 | uint64(op[2])<<48 | uint64(op[3])<<40 | uint64(op[4])<<32
			s.jobs[1<<40+len(s.jobs)] = jobEntry{Mode: qos.Mode{Kind: qos.KindElastic, Slack: math.Float64frombits(bits)}}
		}
	}
	return s
}

// checkEnvelopeEncoding holds the streamed envelope to the oracle's
// bytes (or to its refusal), and then to itself across recover().
func checkEnvelopeEncoding(t *testing.T, s *Server) {
	t.Helper()
	got, err := s.encodeStateLocked()
	want, wantErr := s.encodeStateReflect()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("encode error %v, encoding/json's %v", err, wantErr)
	}
	if err != nil {
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) {
			t.Fatalf("encode error %T %v, want encoding/json's *UnsupportedValueError", err, err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope differs from encoding/json's\ngot:\n%s\nwant:\n%s", got, want)
	}

	cfg := s.cfg
	cfg.Dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(cfg.Dir, snapName), got, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering the encoded snapshot: %v", err)
	}
	defer back.wal.Close() // abandoned like a crash: no drain snapshot
	again, err := back.encodeStateLocked()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, got) {
		t.Fatalf("envelope changed across recover()\nbefore:\n%s\nafter:\n%s", got, again)
	}
}

func snapshotStream(seed int64, h [2]byte, ops int, kinds []byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 2+6*ops)
	rng.Read(data)
	copy(data, h[:])
	for i := 2; i < len(data); i += 6 {
		data[i] = data[i]&0xf0 | kinds[rng.Intn(len(kinds))]
	}
	return data
}

// FuzzSnapshotEncodeEquivalence holds the daemon's streamed envelope to
// the reflection oracle on arbitrary fleets and op streams.
func FuzzSnapshotEncodeEquivalence(f *testing.F) {
	f.Add([]byte{})     // one empty node, empty job table
	f.Add([]byte{5, 1}) // six empty auto-downgrading nodes
	all := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	for s := int64(1); s <= 4; s++ {
		f.Add(snapshotStream(s, [2]byte{byte(s), byte(s)}, 40, all))
	}
	f.Add([]byte{0, 0, 7, 0x7f, 0xf8, 0, 0, 0}) // NaN slack
	f.Add([]byte{0, 0, 7, 0x3e, 0x7a, 0xd7, 0xf2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		checkEnvelopeEncoding(t, runSnapshotStream(data))
	})
}

// TestSnapshotEncodeEquivalenceStreams is the same check on seeded
// streams in every plain `go test`.
func TestSnapshotEncodeEquivalenceStreams(t *testing.T) {
	requests := []byte{0, 1, 2, 3, 4, 5, 6} // what clients can cause
	for _, v := range []struct {
		name  string
		h     [2]byte
		kinds []byte
	}{
		{"one-node", [2]byte{0, 0}, requests},
		{"fleet", [2]byte{5, 0}, requests},
		{"autodowngrade", [2]byte{3, 1}, requests},
		{"cancel-heavy", [2]byte{2, 0}, []byte{0, 5, 5, 6, 6}}, // the job table drains to {}
		{"planted-slacks", [2]byte{1, 0}, []byte{0, 1, 5, 7, 7}},
	} {
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				for _, ops := range []int{0, 9, 400} {
					checkEnvelopeEncoding(t, runSnapshotStream(snapshotStream(seed, v.h, ops, v.kinds)))
				}
			}
		})
	}
}

// TestSnapshotNaNSlackFails: a state encoding/json would have refused to
// write is still refused, whole — no snapshot file, no temporary left
// behind, the failure on healthz — and admissions carry on from the WAL.
func TestSnapshotNaNSlackFails(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SnapshotEvery = 4
	s, ts := newTestServer(t, cfg)
	s.mu.Lock()
	s.jobs[-7] = jobEntry{Mode: qos.Mode{Kind: qos.KindElastic, Slack: math.NaN()}}
	s.mu.Unlock()
	submitN(t, ts.URL, 9, 1) // crosses SnapshotEvery; fails the test on any non-200
	h := getHealth(t, ts.URL)
	if h.SnapshotFailures == 0 || !strings.Contains(h.LastSnapshotError, "NaN") || h.Snapshots != 0 {
		t.Fatalf("NaN slack did not fail the snapshot: %+v", h)
	}
	for _, name := range []string{snapName, snapName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(cfg.Dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s exists after a refused snapshot (stat: %v)", name, err)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/snapshot?persist=1"); err != nil || resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("persist=1 of an unencodable state: %v, %v; want 500", resp.StatusCode, err)
	}
}

// TestRotationFailureKeepsAdmitting fails each step of the
// snapshot-and-rotate sequence in turn on the fake disk, and then every
// later snapshot before it starts, so that nothing acked afterwards is
// rescued by a retry. Whichever step before the final directory sync
// failed, the daemon must keep acking admissions into the log that
// wal.log durably names, report the failures, leave no temporary file
// behind, and recover every acked operation from that log alone, under
// both crash models and every landing of what no directory sync
// covered. A failed final directory sync leaves wal.log naming the new
// log only in memory, so the daemon fails closed instead: 503 while the
// re-anchor keeps failing — a crash then recovers the acked state — and
// acks again once the disk heals.
func TestRotationFailureKeepsAdmitting(t *testing.T) {
	tmp := func(name string) string { return name + ".tmp" }
	for _, step := range []struct {
		name  string
		fault diskFault
	}{
		{"snapshot-create", diskFault{op: opCreate, name: tmp(snapName)}},
		{"snapshot-write", diskFault{op: opWrite, name: tmp(snapName)}},
		{"snapshot-sync", diskFault{op: opSync, name: tmp(snapName)}},
		{"snapshot-rename", diskFault{op: opRename, name: tmp(snapName)}},
		{"snapshot-dirsync", diskFault{op: opSyncDir}},
		{"wal-create", diskFault{op: opCreate, name: tmp(walName)}},
		{"wal-header-write", diskFault{op: opWrite, name: tmp(walName), short: true}},
		{"wal-header-sync", diskFault{op: opSync, name: tmp(walName)}},
		{"wal-rename", diskFault{op: opRename, name: tmp(walName)}},
		{"wal-dirsync", diskFault{op: opSyncDir, n: 1}},
	} {
		t.Run(step.name, func(t *testing.T) {
			cfg := fakeConfig()
			cfg.SnapshotEvery = 6
			disk := newFakeDisk()
			s := newFakeServer(t, cfg, disk)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			submitN(t, ts.URL, 8, 1) // one clean snapshot and rotation first
			if h := getHealth(t, ts.URL); h.Snapshots != 1 || h.SnapshotFailures != 0 {
				t.Fatalf("before the fault: %+v", h)
			}
			step.fault.err = syscall.EIO
			disk.schedule(step.fault, diskFault{op: opCreate, name: tmp(snapName), n: 1, err: syscall.ENOSPC, sticky: true})

			// crash requires every crash image of the disk to recover to
			// the acked state and sequence number.
			crash := func() {
				t.Helper()
				h := getHealth(t, ts.URL)
				acked := stateOf(t, s)
				img := imageOf(disk)
				for model := 0; model < img.models(); model++ {
					for pat := 0; pat < img.landings(); pat++ {
						s2 := newFakeServer(t, cfg, img.restore(model, pat, nil))
						if got := stateOf(t, s2); !bytes.Equal(acked, got) || s2.seq != h.WALSeq {
							t.Fatalf("crash model %d, landing %d: recovered seq %d (acked %d), state equal %v",
								model, pat, s2.seq, h.WALSeq, bytes.Equal(acked, got))
						}
					}
				}
			}

			if step.fault.op == opSyncDir && step.fault.n == 1 {
				// The submit whose record triggers the failing rotation is
				// acked; the next one is refused.
				for id := 100; ; id++ {
					code := postJSON(t, ts.URL+"/v1/submit", SubmitRequest{JobID: id, Mode: "opportunistic", Cores: 1, Ways: 1, Arrival: int64(5000 + id)}, nil)
					if code == http.StatusServiceUnavailable {
						break
					}
					if code != http.StatusOK || id > 110 {
						t.Fatalf("submit %d before the log is poisoned: status %d", id, code)
					}
				}
				if h := getHealth(t, ts.URL); !h.WALDegraded || h.Snapshots != 1 || h.SnapshotFailures < 2 {
					t.Fatalf("after the failed directory sync: %+v", h)
				}
				crash()
				disk.heal()
			}
			// Every op from the next trigger on retries the snapshot and
			// fails again; submitN fails the test on any non-200.
			submitN(t, ts.URL, 12, 300)
			h := getHealth(t, ts.URL)
			if h.SnapshotFailures < 2 || h.Snapshots != 1 && step.fault.n == 0 || h.Status != "ok" {
				t.Fatalf("after the fault: %+v", h)
			}
			for name := range disk.names {
				if strings.HasSuffix(name, ".tmp") {
					t.Errorf("%s left behind", name)
				}
			}
			crash()
		})
	}
}

// TestSnapshotStatsReported reads the snapshot counters back from
// healthz, and pins persist=1 to one rendering: the response body, the
// file and the reported size are the same bytes.
func TestSnapshotStatsReported(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.SnapshotEvery = 8
	_, ts := newTestServer(t, cfg)
	if h := getHealth(t, ts.URL); h.Snapshots != 0 || h.LastSnapshotBytes != 0 || h.LastSnapshotMS != 0 {
		t.Fatalf("fresh daemon reports snapshots: %+v", h)
	}
	submitN(t, ts.URL, 12, 1)
	h := getHealth(t, ts.URL)
	if h.Snapshots != 1 || h.LastSnapshotBytes == 0 || h.LastSnapshotMS <= 0 {
		t.Fatalf("periodic snapshot not reported: %+v", h)
	}
	body := getBytes(t, ts.URL+"/v1/snapshot?persist=1")
	file, err := os.ReadFile(filepath.Join(cfg.Dir, snapName))
	if err != nil {
		t.Fatal(err)
	}
	h = getHealth(t, ts.URL)
	if !bytes.Equal(body, file) || h.Snapshots != 2 || h.LastSnapshotBytes != int64(len(file)) {
		t.Fatalf("persist=1 answered %d bytes, wrote %d, healthz %+v", len(body), len(file), h)
	}
	if bare := getBytes(t, ts.URL+"/v1/snapshot"); !bytes.Equal(bare, body) {
		t.Error("persist=1 body differs from the bare snapshot of the same state")
	}
}

// warmServer boots a daemon on a scratch directory and drives it, through
// the real handlers, to a saturated fleet: about a dozen live
// reservations a node, every third grant cancelled early.
func warmServer(tb testing.TB, nodes int) *Server {
	tb.Helper()
	cfg := testConfig(tb.TempDir())
	cfg.Nodes = nodes
	cfg.SnapshotEvery = 1 << 30
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	h := s.Handler()
	post := func(path string, body any) *httptest.ResponseRecorder {
		b, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec
	}
	var live []int
	for i := 0; i < 14*nodes; i++ {
		now := int64(1 + i*256/nodes)
		tw := int64(2000 + 500*(i%5))
		req := SubmitRequest{
			JobID:      1 + i,
			Mode:       []string{"strict", "strict", "elastic", "opportunistic"}[i%4],
			Slack:      0.1,
			Cores:      1,
			Ways:       3 + i%5,
			TW:         tw,
			DeadlineIn: tw * int64(4+4*(i%2)),
			Arrival:    now,
		}
		var resp SubmitResponse
		if err := json.Unmarshal(post("/v1/submit", req).Body.Bytes(), &resp); err != nil {
			tb.Fatal(err)
		}
		if resp.Accepted {
			live = append(live, req.JobID)
		}
		if i%3 == 2 && len(live) > 0 {
			k := (i * 7) % len(live)
			post("/v1/cancel", CancelRequest{JobID: live[k], Now: now})
			live = append(live[:k], live[k+1:]...)
		}
	}
	return s
}

func (s *Server) persistForTest(tb testing.TB) {
	s.mu.Lock()
	err := s.persistSnapshotLocked(nil)
	s.mu.Unlock()
	if err != nil {
		tb.Fatal(err)
	}
}

// TestSnapshotPersistAllocs pins what the streaming encoder is for: a
// periodic snapshot allocates a small constant — file handles, paths,
// the next WAL writer — with no term in nodes, reservations or jobs. The
// reflection path allocated ~90 times per node.
func TestSnapshotPersistAllocs(t *testing.T) {
	small, big := warmServer(t, 2), warmServer(t, 64)
	if len(big.jobs) < 20*len(small.jobs) {
		t.Fatalf("the big fleet is not big: %d jobs against %d", len(big.jobs), len(small.jobs))
	}
	allocsSmall := testing.AllocsPerRun(5, func() { small.persistForTest(t) })
	allocsBig := testing.AllocsPerRun(5, func() { big.persistForTest(t) })
	if allocsBig > allocsSmall+2 || allocsBig > 60 {
		t.Errorf("a 64-node snapshot allocated %.0f times, a 2-node one %.0f: want equal and small", allocsBig, allocsSmall)
	}
	if big.lastSnapBytes < 20*small.lastSnapBytes {
		t.Errorf("snapshots of %d and %d bytes: the comparison needs images of different size", big.lastSnapBytes, small.lastSnapBytes)
	}
}

// BenchmarkSnapshotPersist prices one periodic snapshot — encode, write,
// fsyncs, WAL rotation, all inside Server.mu — on warmed fleets of the
// benchmark's two sizes.
func BenchmarkSnapshotPersist(b *testing.B) {
	for _, nodes := range []int{4, 750} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			s := warmServer(b, nodes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.persistForTest(b)
			}
			b.ReportMetric(float64(s.lastSnapBytes), "bytes/snapshot")
		})
	}
}

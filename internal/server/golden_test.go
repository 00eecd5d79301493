package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden with the current daemon's op stream, state directories and snapshots")

const goldenDir = "testdata/golden"

// goldenCases are the checked-in state directories: the op stream of
// testdata/golden/ops.txt driven into a fresh daemon, which then either
// crashes after rotating mid-log and tearing the last record, or drains.
var goldenCases = []struct {
	name      string
	snapEvery int
	drain     bool
}{
	{"rotated-torn", 16, false},
	{"drained", 1 << 20, true},
}

// goldenTear is how many bytes the crash cuts off the last WAL record.
const goldenTear = 5

// goldenOps draws the seeded op stream: submits of every mode (some
// through the negotiation ladder) and cancels of admitted jobs, each
// with its own explicit arrival or now stamp, so a daemon's clock never
// enters the bytes. accepted answers whether a submitted job was
// admitted, so cancels name live jobs.
func goldenOps(accepted func(path string, body []byte) bool) []string {
	rng := rand.New(rand.NewSource(57))
	var ops []string
	var live []int
	clock := int64(1)
	for id := 1; len(ops) < 60; id++ {
		clock += 50 + rng.Int63n(400)
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			body, _ := json.Marshal(CancelRequest{JobID: live[k], Now: clock})
			ops = append(ops, "/v1/cancel "+string(body))
			accepted("/v1/cancel", body)
			live = append(live[:k], live[k+1:]...)
			continue
		}
		req := SubmitRequest{JobID: id, Mode: []string{"strict", "strict", "elastic", "opportunistic"}[rng.Intn(4)],
			Cores: 1 + rng.Intn(2), Ways: 2 + rng.Intn(7), Arrival: clock, Negotiate: rng.Intn(4) == 0}
		if req.Mode == "elastic" {
			req.Slack = []float64{0.05, 0.1, 0.25}[rng.Intn(3)]
		}
		if req.Mode != "opportunistic" {
			req.TW = 500 + rng.Int63n(3000)
			req.DeadlineIn = req.TW * (1 + rng.Int63n(4))
		}
		body, _ := json.Marshal(req)
		ops = append(ops, "/v1/submit "+string(body))
		if accepted("/v1/submit", body) {
			live = append(live, id)
		}
	}
	return ops
}

// runGolden drives ops into a fresh daemon on dir and finishes as c
// says. It fails on any answer but 200.
func runGolden(t *testing.T, dir string, snapEvery int, drain bool, ops []string) {
	t.Helper()
	cfg := testConfig(dir)
	cfg.SnapshotEvery = snapEvery
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		path, body, _ := strings.Cut(op, " ")
		if rec := serve(s, "POST", path, []byte(body)); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", op, rec.Code, rec.Body)
		}
	}
	if drain {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	s.wal.Close() // the crash: no drain, no final snapshot
	walPath := filepath.Join(dir, walName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-goldenTear); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenStateDirs pins the daemon's bytes on disk from both sides.
// The writer: the checked-in op stream, driven into a fresh daemon,
// leaves exactly the checked-in snapshot.json and wal.log. The reader:
// each checked-in directory, recovered by New, answers GET /v1/snapshot
// with exactly the checked-in body. A change that moves either has to
// say why, bump walVersion or envelopeVersion, and keep the old
// directories as cases that must then fail with a *qos.VersionError.
// -update rewrites testdata/golden from the current daemon.
func TestGoldenStateDirs(t *testing.T) {
	opsPath := filepath.Join(goldenDir, "ops.txt")
	if *update {
		s, err := New(testConfig(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		ops := goldenOps(func(path string, body []byte) bool {
			rec := serve(s, "POST", path, body)
			var ans SubmitResponse
			return rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &ans) == nil && ans.Accepted
		})
		s.Close()
		writeGolden(t, opsPath, []byte(strings.Join(ops, "\n")+"\n"))
	}
	data, err := os.ReadFile(opsPath)
	if err != nil {
		t.Fatal(err)
	}
	ops := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")

	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			want := filepath.Join(goldenDir, c.name)
			got := t.TempDir()
			runGolden(t, got, c.snapEvery, c.drain, ops)
			for _, name := range []string{snapName, walName} {
				b, err := os.ReadFile(filepath.Join(got, name))
				if err != nil {
					t.Fatal(err)
				}
				if *update {
					writeGolden(t, filepath.Join(want, name), b)
				}
				if w, err := os.ReadFile(filepath.Join(want, name)); err != nil || !bytes.Equal(b, w) {
					t.Errorf("the op stream left a %s of %d bytes, the checked-in one has %d (%v)", name, len(b), len(w), err)
				}
			}

			// Recover a copy: recovery cuts the torn tail, and the
			// checked-in directory must stay as the crash left it.
			dir := t.TempDir()
			for _, name := range []string{snapName, walName} {
				b, err := os.ReadFile(filepath.Join(want, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, err := New(testConfig(dir))
			if err != nil {
				t.Fatalf("recovering %s: %v", want, err)
			}
			defer s.wal.Close()
			rec := serve(s, "GET", "/v1/snapshot", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /v1/snapshot: status %d", rec.Code)
			}
			body := rec.Body.Bytes()
			wantBody := filepath.Join(goldenDir, c.name+".snapshot.json")
			if *update {
				writeGolden(t, wantBody, body)
			}
			w, err := os.ReadFile(wantBody)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, w) {
				t.Errorf("%s recovers to a snapshot that differs from %s:\ngot:\n%s", want, wantBody, firstDiff(body, w))
			}
		})
	}
}

// TestGoldenOpStream pins the daemon's answers: the op stream of
// testdata/golden/ops.txt, driven through Handler().ServeHTTP into a
// fresh daemon, answers each op with exactly the status, Content-Type
// and body of its line in testdata/golden/ops.answers.txt. -update
// rewrites that file from the current daemon.
func TestGoldenOpStream(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(goldenDir, "ops.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ops := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got bytes.Buffer
	for _, op := range ops {
		path, body, _ := strings.Cut(op, " ")
		rec := serve(s, "POST", path, []byte(body))
		fmt.Fprintf(&got, "%d %s %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	answersPath := filepath.Join(goldenDir, "ops.answers.txt")
	if *update {
		writeGolden(t, answersPath, got.Bytes())
	}
	want, err := os.ReadFile(answersPath)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(ops) && i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("op %d (%s) answers %q, %s has %q", i+1, ops[i], g[i], answersPath, w[i])
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("%d ops answer %d bytes, %s has %d", len(ops), got.Len(), answersPath, len(want))
	}
}

func writeGolden(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstDiff renders the line where got and want first differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q\nwant:   %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

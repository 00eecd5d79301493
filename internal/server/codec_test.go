package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cmpqos/internal/qos"
)

// serve sends one request straight into the daemon's handler.
func serve(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func walSeq(t *testing.T, s *Server) int64 {
	t.Helper()
	var h Health
	if err := json.Unmarshal(serve(s, "GET", "/healthz", nil).Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h.WALSeq
}

// TestRequestBodiesAtTheHandler pins what the API accepts, through
// Handler().ServeHTTP: encoding/json's rules on both the scanner's and
// the fallback's side, nothing after the one object, 413 past the body
// cap. A refused body logs nothing.
func TestRequestBodiesAtTheHandler(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	submit := func(id int) string {
		return `{"job_id":` + strconv.Itoa(id) + `,"mode":"strict","cores":1,"ways":2,"tw":1000,"deadline_in":50000,"arrival":` + strconv.Itoa(id) + `}`
	}
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"unknown field", "/v1/submit", `{"job_id":1,"mode":"strict","cores":1,"ways":2,"bogus":1}`, http.StatusBadRequest},
		{"case-folded keys take the fallback", "/v1/submit", `{"Job_ID":2,"Mode":"strict","cores":1,"ways":2,"TW":1000,"deadline_in":50000,"arrival":2}`, http.StatusOK},
		{"second object", "/v1/submit", submit(3) + submit(4), http.StatusBadRequest},
		{"trailing garbage", "/v1/submit", submit(5) + " x", http.StatusBadRequest},
		{"string for an int", "/v1/submit", `{"job_id":"6","mode":"strict","cores":1,"ways":2}`, http.StatusBadRequest},
		{"int64 overflow", "/v1/submit", `{"job_id":7,"mode":"strict","cores":1,"ways":2,"tw":9223372036854775808}`, http.StatusBadRequest},
		{"fraction for an int", "/v1/submit", `{"job_id":8,"mode":"strict","cores":1.5,"ways":2}`, http.StatusBadRequest},
		{"unknown mode", "/v1/submit", `{"job_id":9,"mode":"lenient","cores":1,"ways":2}`, http.StatusBadRequest},
		{"elastic slack above 1", "/v1/submit", `{"job_id":9,"mode":"elastic","slack":1.5,"cores":1,"ways":2,"tw":1000}`, http.StatusBadRequest},
		{"deadline and deadline_in", "/v1/submit", `{"job_id":9,"mode":"strict","cores":1,"ways":2,"tw":1000,"deadline":60000,"deadline_in":50000}`, http.StatusBadRequest},
		{"empty body", "/v1/submit", ``, http.StatusBadRequest},
		{"oversized", "/v1/submit", submit(10) + strings.Repeat(" ", maxBody), http.StatusRequestEntityTooLarge},
		{"padded past the pooled buffer", "/v1/submit", submit(11) + strings.Repeat("\n", 3*pooledBuf), http.StatusOK},
		{"whitespace around the object", "/v1/submit", " \t\r\n" + submit(12) + "\n", http.StatusOK},
		{"negotiate, second object", "/v1/negotiate", submit(13) + `{}`, http.StatusBadRequest},
		{"cancel, second object", "/v1/cancel", `{"job_id":11}{"job_id":12}`, http.StatusBadRequest},
		{"cancel, unknown field", "/v1/cancel", `{"job_id":11,"later":1}`, http.StatusBadRequest},
		{"cancel, oversized", "/v1/cancel", `{"job_id":11}` + strings.Repeat(" ", maxBody), http.StatusRequestEntityTooLarge},
		{"cancel", "/v1/cancel", `{"job_id":11,"now":100}`, http.StatusOK},
	} {
		before := walSeq(t, s)
		rec := serve(s, "POST", c.path, []byte(c.body))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
			continue
		}
		logged := walSeq(t, s) - before
		if c.want != http.StatusOK {
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Errorf("%s: error body %q", c.name, rec.Body)
			}
			if logged != 0 {
				t.Errorf("%s: refused, but wal_seq moved by %d", c.name, logged)
			}
		} else if logged != 1 && c.path != "/v1/negotiate" {
			t.Errorf("%s: answered 200, but wal_seq moved by %d", c.name, logged)
		}
	}
}

// loadSubmitWire is internal/load's submitWire, field for field: the
// body qosload sends.
type loadSubmitWire struct {
	JobID      int     `json:"job_id"`
	Mode       string  `json:"mode"`
	Slack      float64 `json:"slack,omitempty"`
	Cores      int     `json:"cores"`
	Ways       int     `json:"ways"`
	TW         int64   `json:"tw,omitempty"`
	DeadlineIn int64   `json:"deadline_in,omitempty"`
	WaitMS     int64   `json:"wait_ms,omitempty"`
	Negotiate  bool    `json:"negotiate,omitempty"`
}

// benchEncode is bench/admit.go's client.encode, byte for byte: the body
// the repository benchmark sends.
func benchEncode(cancel bool, jobID int, mode string, ways int, slack float64, tw, deadline, at int64) []byte {
	b := []byte(`{"job_id":`)
	b = strconv.AppendInt(b, int64(jobID), 10)
	if cancel {
		b = append(b, `,"now":`...)
		b = strconv.AppendInt(b, at, 10)
		return append(b, '}')
	}
	b = append(b, `,"mode":"`...)
	b = append(b, mode...)
	b = append(b, `","cores":1,"ways":`...)
	b = strconv.AppendInt(b, int64(ways), 10)
	if mode == "elastic" {
		b = append(b, `,"slack":`...)
		b = strconv.AppendFloat(b, slack, 'g', -1, 64)
	}
	b = append(b, `,"tw":`...)
	b = strconv.AppendInt(b, tw, 10)
	b = append(b, `,"deadline":`...)
	b = strconv.AppendInt(b, deadline, 10)
	b = append(b, `,"arrival":`...)
	b = strconv.AppendInt(b, at, 10)
	return append(b, '}')
}

// clientBodies are what this repository's clients put on the wire.
func clientBodies(t testing.TB) (submits, cancels [][]byte) {
	for i, mode := range []string{"strict", "elastic", "opportunistic"} {
		for _, negotiate := range []bool{false, true} {
			w := loadSubmitWire{JobID: 1<<20 + i, Mode: mode, Cores: 1, Ways: 4, WaitMS: 250, Negotiate: negotiate}
			if mode != "opportunistic" {
				w.TW, w.DeadlineIn = 2_000_000, 8_000_000
			}
			if mode == "elastic" {
				w.Slack = 0.05
			}
			b, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			submits = append(submits, b)
		}
		submits = append(submits, benchEncode(false, 77_000+i, mode, 3+i, 0.05, 1_800_000, 9_000_000, 123_456_789))
	}
	c, err := json.Marshal(map[string]int{"job_id": 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return submits, append(cancels, c, benchEncode(true, 77_000, "", 0, 0, 0, 0, 123_999_999))
}

// TestClientBodiesTakeScannerPath: every body qosload and the benchmark
// send is decoded by the scanner, to what encoding/json decodes.
func TestClientBodiesTakeScannerPath(t *testing.T) {
	submits, cancels := clientBodies(t)
	for _, b := range submits {
		var got SubmitRequest
		want, err := decodeJSON[SubmitRequest](b)
		if !got.scan(b) || err != nil || got != want {
			t.Errorf("%s: scanner decoded %+v, encoding/json %+v (%v)", b, got, want, err)
		}
	}
	for _, b := range cancels {
		var got CancelRequest
		want, err := decodeJSON[CancelRequest](b)
		if !got.scan(b) || err != nil || got != want {
			t.Errorf("%s: scanner decoded %+v, encoding/json %+v (%v)", b, got, want, err)
		}
	}
}

// checkRequestDecode is FuzzRequestDecode's property: whatever the
// scanner accepts, encoding/json accepts too, as an equal request.
func checkRequestDecode(t *testing.T, body []byte) {
	var sub SubmitRequest
	if sub.scan(body) {
		want, err := decodeJSON[SubmitRequest](body)
		if err != nil || sub != want {
			t.Fatalf("%q: scanner decoded submit %+v, encoding/json %+v (%v)", body, sub, want, err)
		}
	}
	var can CancelRequest
	if can.scan(body) {
		want, err := decodeJSON[CancelRequest](body)
		if err != nil || can != want {
			t.Fatalf("%q: scanner decoded cancel %+v, encoding/json %+v (%v)", body, can, want, err)
		}
	}
}

var requestSeeds = []string{
	``, `{}`, ` { } `, `{"job_id":1}`, `{"job_id":-0}`, `{"job_id":01}`, `{"job_id":1.0}`, `{"job_id":1e2}`,
	`{"job_id":9223372036854775807}`, `{"job_id":9223372036854775808}`, `{"job_id":-9223372036854775808}`,
	`{"job_id":-9223372036854775809}`, `{"job_id":"1"}`, `{"job_id":null}`, `{"job_id":1,}`, `{,"job_id":1}`,
	`{"Job_ID":1}`, `{"job_id":1}{"job_id":2}`, `{"job_id":1} x`, `{"job_id":1}` + "\n\t ",
	`{"mode":"strict","mode":"elastic"}`, `{"mode":"a\nb"}`, `{"mode":""}`, `{"mode":"Strict"}`,
	`{"slack":0.05}`, `{"slack":-0.0}`, `{"slack":1E-7}`, `{"slack":1e400}`, `{"slack":.5}`, `{"slack":5.}`,
	`{"slack":1e}`, `{"slack":1e+3}`, `{"slack":-}`, `{"slack":4.9e-324}`, `{"slack":2.5e-324}`,
	`{"negotiate":true}`, `{"negotiate":false}`, `{"negotiate":tru}`, `{"negotiate":1}`,
	`{"now":-5,"job_id":3}`, `{"job_id" : 3 , "now" : 4}`, "{\"job_id\":3,\"now\":4}\x00",
}

// FuzzRequestDecode holds the scanner to encoding/json on arbitrary
// bodies.
func FuzzRequestDecode(f *testing.F) {
	submits, cancels := clientBodies(f)
	for _, b := range append(submits, cancels...) {
		f.Add(b)
	}
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequestDecode)
}

// TestRequestDecodeRandom is the same property in every plain go test,
// over bodies built from the request grammar — canonical ones, which
// the scanner must also accept, and single-byte mutations of them.
func TestRequestDecodeRandom(t *testing.T) {
	submitKeys := []string{"job_id", "mode", "slack", "cores", "ways", "mem_mb", "bw_mbps", "tw", "deadline",
		"deadline_in", "arrival", "wait_ms", "negotiate"}
	cancelKeys := []string{"job_id", "now"}
	values := map[string][]string{
		"mode":      {`"strict"`, `"elastic"`, `"opportunistic"`, `""`},
		"slack":     {`0.05`, `1`, `0`, `-2.5e-9`, `1E+2`, `0.1`, `123456789.125`},
		"negotiate": {`true`, `false`},
	}
	ints := []string{`0`, `1`, `-1`, `42`, `9223372036854775807`, `-9223372036854775808`, `1000000`}
	space := []string{``, ` `, "\n", "\t", "\r\n  "}
	r := rand.New(rand.NewSource(5))
	rng := r.Intn
	const mutations = "{}[],:\"\\ -+.eE0123456789tfnulx\x00\x80"
	ws := func() string { return space[rng(len(space))] }
	for i := 0; i < 20000; i++ {
		cancel := rng(3) == 0
		keys := submitKeys
		if cancel {
			keys = cancelKeys
		}
		var b strings.Builder
		b.WriteString(ws() + "{")
		for m := rng(6); m > 0; m-- {
			key := keys[rng(len(keys))]
			val := ints[rng(len(ints))]
			if vs, ok := values[key]; ok {
				val = vs[rng(len(vs))]
			}
			b.WriteString(ws() + `"` + key + `"` + ws() + ":" + ws() + val + ws())
			if m > 1 {
				b.WriteString(",")
			}
		}
		b.WriteString("}" + ws())
		body := []byte(b.String())
		var sub SubmitRequest
		var can CancelRequest
		if cancel && !can.scan(body) || !cancel && !sub.scan(body) {
			t.Fatalf("%q: canonical body refused by the scanner", body)
		}
		checkRequestDecode(t, body)
		body[rng(len(body))] = mutations[rng(len(mutations))]
		checkRequestDecode(t, body)
	}
}

// FuzzResponseEncode holds the appended 200 answers to writeJSON:
// status, headers and body bytes.
func FuzzResponseEncode(f *testing.F) {
	f.Add(true, 1, 0, "strict", int64(10), 1, false, int64(0), false, "", int64(1))
	f.Add(false, -7, 3, "opportunistic", int64(0), 0, true, int64(99), true, "no node can fit <ways> & \"cores\"\n\xff", int64(0))
	f.Add(true, 1<<40, 749, "elastic", int64(-1), -3, true, int64(1<<62), false, "\u2028\u2029\x01", int64(1<<62))
	f.Fuzz(func(t *testing.T, accepted bool, jobID, node int, mode string, start int64, resID int,
		autoDown bool, switchBack int64, degraded bool, reason string, seq int64) {
		sub := SubmitResponse{Accepted: accepted, JobID: jobID, Node: node, Mode: mode, Start: start, ReservationID: resID,
			AutoDowngraded: autoDown, SwitchBack: switchBack, Degraded: degraded, Reason: reason, Seq: seq}
		can := CancelResponse{Cancelled: accepted, JobID: jobID, Node: node, Seq: seq}
		for _, v := range []struct {
			resp   any
			append func([]byte) []byte
		}{{sub, sub.appendJSON}, {can, can.appendJSON}} {
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, v.resp)
			got := httptest.NewRecorder()
			bp := getBuf()
			*bp = v.append((*bp)[:0])
			writeOK(got, bp)
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("appended: %d %v %q\nwriteJSON: %d %v %q", got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
			}
		}
	})
}

// TestAdmitCodecsZeroAlloc pins the admit path's codecs at no
// allocation: the scanner on every canonical submit and cancel the
// repository's clients send, a WAL append into a warmed writer, and the
// appended responses.
func TestAdmitCodecsZeroAlloc(t *testing.T) {
	submits, cancels := clientBodies(t)
	var req SubmitRequest
	var creq CancelRequest
	if allocs := testing.AllocsPerRun(100, func() {
		for _, b := range submits {
			if !req.scan(b) {
				t.Fatalf("scanner refused %s", b)
			}
		}
		for _, b := range cancels {
			if !creq.scan(b) {
				t.Fatalf("scanner refused %s", b)
			}
		}
	}); allocs != 0 {
		t.Errorf("scanning %d submits and %d cancels allocated %.1f times, want 0", len(submits), len(cancels), allocs)
	}

	w, err := qos.CreateWAL(filepath.Join(t.TempDir(), "wal.log"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := qos.WALRecord{Seq: 1, Op: qos.WALAdmit, JobID: 123_456, Mode: qos.Elastic(0.05),
		RUM:     qos.RUM{Resources: qos.ResourceVector{Cores: 1, CacheWays: 7}, MaxWallClock: 1_800_000, Deadline: 9_000_000},
		Arrival: 123_456_789, Negotiate: true, MaxSlack: 0.05, Node: 3, FinalMode: qos.Opportunistic(),
		Dec: qos.Decision{Start: 123_456_789, Reason: "no timeslot before the deadline"}}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		rec.Seq++
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a WAL append allocated %.1f times, want 0", allocs)
	}

	sub := SubmitResponse{JobID: 123_456, Node: 3, Mode: "opportunistic", Start: 123_456_789, Reason: rec.Dec.Reason, Seq: 9}
	can := CancelResponse{Cancelled: true, JobID: 123_456, Node: 3, Seq: 10}
	buf := make([]byte, 0, pooledBuf)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = sub.appendJSON(buf[:0])
		buf = can.appendJSON(buf[:0])
	}); allocs != 0 {
		t.Errorf("appending the responses allocated %.1f times, want 0", allocs)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"cmpqos/internal/jsonenc"
)

// The admit path's codecs. encoding/json defines what a request body
// may be — decodeJSON, with unknown fields refused and nothing after the
// one value — and words every 400. In front of it a fixed-schema
// scanner reads the canonical subset every client of this repository
// sends (exact-case keys; integers, plain decimal numbers, booleans, and
// strings of printable ASCII without escapes) into the request struct
// with no allocation, and hands anything else to encoding/json
// unchanged; it only ever agrees with it (FuzzRequestDecode). The 200
// answers of submit and cancel are appended into a pooled buffer as the
// bytes json.Encoder.Encode writes (FuzzResponseEncode).

// pooledBuf is the capacity of bufPool's buffers: a request body or
// admit response fits many times over. A body that outgrows one is read
// into a larger buffer the pool does not keep.
const pooledBuf = 4 << 10

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, pooledBuf); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) == pooledBuf {
		bufPool.Put(bp)
	}
}

// readBody reads r's whole body into a pooled buffer, which the caller
// returns with putBuf. Past maxBody it answers 413, on any other read
// error 400, and returns nil.
func readBody(w http.ResponseWriter, r *http.Request) *[]byte {
	bp := getBuf()
	b := (*bp)[:0]
	var err error
	for {
		if len(b) == cap(b) {
			// Longer than the pooled buffer: the rest is read under
			// net/http's limit, which also closes the connection when
			// a client overruns it.
			var rest []byte
			rest, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody-int64(len(b))))
			b = append(b, rest...)
			break
		}
		var n int
		n, err = r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			err = nil
			break
		}
		if err != nil {
			break
		}
	}
	*bp = b
	if err != nil {
		putBuf(bp)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return nil
	}
	return bp
}

var errTrailingData = errors.New("request body holds more than one JSON value")

// decodeJSON decodes body as the API defines a request: one JSON value,
// no field the type does not declare, nothing after it but whitespace.
// It returns the value rather than filling the caller's, so the caller's
// request stays off the heap on the scanner path.
func decodeJSON[T any](body []byte) (T, error) {
	v := new(T)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		err = errTrailingData
	}
	return *v, err
}

// decodeSubmit reads a submit or negotiate body into req. false means
// the error is answered.
func decodeSubmit(w http.ResponseWriter, r *http.Request, req *SubmitRequest) bool {
	bp := readBody(w, r)
	if bp == nil {
		return false
	}
	defer putBuf(bp)
	if req.scan(*bp) {
		return true
	}
	v, err := decodeJSON[SubmitRequest](*bp)
	*req = v
	return answered(w, err)
}

// decodeCancel reads a cancel body into req. false means the error is
// answered.
func decodeCancel(w http.ResponseWriter, r *http.Request, req *CancelRequest) bool {
	bp := readBody(w, r)
	if bp == nil {
		return false
	}
	defer putBuf(bp)
	if req.scan(*bp) {
		return true
	}
	v, err := decodeJSON[CancelRequest](*bp)
	*req = v
	return answered(w, err)
}

// answered reports whether decoding succeeded, answering 400 if not.
func answered(w http.ResponseWriter, err error) bool {
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// scan fills q from a canonical body and reports whether it was one; on
// false q is partly written and the body must go to decodeJSON.
func (q *SubmitRequest) scan(b []byte) bool {
	s := scanner{b: b}
	for {
		key, ok := s.next()
		if !ok {
			return s.done()
		}
		switch string(key) {
		case "job_id":
			q.JobID = s.int()
		case "mode":
			q.Mode = s.mode()
		case "slack":
			q.Slack = s.float()
		case "cores":
			q.Cores = s.int()
		case "ways":
			q.Ways = s.int()
		case "mem_mb":
			q.MemMB = s.int()
		case "bw_mbps":
			q.BWMBps = s.int()
		case "tw":
			q.TW = s.int64()
		case "deadline":
			q.Deadline = s.int64()
		case "deadline_in":
			q.DeadlineIn = s.int64()
		case "arrival":
			q.Arrival = s.int64()
		case "wait_ms":
			q.WaitMS = s.int64()
		case "negotiate":
			q.Negotiate = s.bool()
		default:
			return false
		}
	}
}

// scan is SubmitRequest.scan for a cancel.
func (q *CancelRequest) scan(b []byte) bool {
	s := scanner{b: b}
	for {
		key, ok := s.next()
		if !ok {
			return s.done()
		}
		switch string(key) {
		case "job_id":
			q.JobID = s.int()
		case "now":
			q.Now = s.int64()
		default:
			return false
		}
	}
}

// scanner walks one flat JSON object of the canonical subset. Every
// method that meets a byte outside it sets bad, after which next reports
// no more members and done reports failure.
type scanner struct {
	b       []byte
	i       int
	members int
	closed  bool // the object's closing brace was read
	bad     bool
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, or marks the scan bad.
func (s *scanner) eat(c byte) {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
	} else {
		s.bad = true
	}
}

// next consumes up to the next member's value and returns its key; ok
// is false at the closing brace or once the scan is bad.
func (s *scanner) next() (key []byte, ok bool) {
	s.space()
	if s.members == 0 {
		s.eat('{')
		s.space()
	}
	if s.bad {
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '}' {
		s.i++
		s.closed = true
		return nil, false
	}
	if s.members > 0 {
		s.eat(',')
		s.space()
	}
	s.members++
	key = s.str()
	s.space()
	s.eat(':')
	s.space()
	return key, !s.bad
}

// done reports whether the whole body was one canonical object.
func (s *scanner) done() bool {
	s.space()
	return s.closed && !s.bad && s.i == len(s.b)
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (s *scanner) str() []byte {
	s.eat('"')
	start := s.i
	for !s.bad && s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			s.bad = true
		default:
			s.i++
		}
	}
	s.bad = true
	return nil
}

// mode consumes a mode name. Only the names parseMode knows are
// canonical, so the string is a constant and never a copy of the body;
// anything else is left for encoding/json and parseMode to refuse.
func (s *scanner) mode() string {
	switch string(s.str()) {
	case "strict":
		return "strict"
	case "elastic":
		return "elastic"
	case "opportunistic":
		return "opportunistic"
	case "":
		return ""
	}
	s.bad = true
	return ""
}

func (s *scanner) bool() bool {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false
	}
	s.bad = true
	return false
}

// digits consumes a run of decimal digits and returns how many.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int64 consumes a JSON integer, -?(0|[1-9][0-9]*), that fits an int64
// (encoding/json refuses one that does not).
func (s *scanner) int64() int64 {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	n := s.digits()
	// 19 digits hold every int64 and cannot overflow a uint64.
	if n == 0 || n > 19 || (n > 1 && s.b[start] == '0') {
		s.bad = true
		return 0
	}
	var u uint64
	for _, c := range s.b[start:s.i] {
		u = 10*u + uint64(c-'0')
	}
	switch {
	case !neg && u <= 1<<63-1:
		return int64(u)
	case neg && u <= 1<<63:
		return -int64(u)
	}
	s.bad = true
	return 0
}

// int consumes a JSON integer that must fit an int, as encoding/json
// requires: a no-op test where int is 64 bits, and FuzzRequestDecode
// holds it to encoding/json wherever it is not.
func (s *scanner) int() int {
	v := s.int64()
	s.bad = s.bad || int64(int(v)) != v
	return int(v)
}

// float consumes a JSON number and parses it as encoding/json does.
func (s *scanner) float() float64 {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	intStart := s.i
	if n := s.digits(); n == 0 || (n > 1 && s.b[intStart] == '0') {
		s.bad = true
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.bad = true
		}
	}
	if s.bad {
		return 0
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		s.bad = true // out of float64's range
	}
	return v
}

// appendJSON appends p as json.Encoder.Encode writes it.
func (p SubmitResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendBool(b, p.Accepted)
	b = append(b, `,"job_id":`...)
	b = strconv.AppendInt(b, int64(p.JobID), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(p.Node), 10)
	b = append(b, `,"mode":`...)
	b = jsonenc.AppendString(b, p.Mode)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, p.Start, 10)
	if p.ReservationID != 0 {
		b = append(b, `,"reservation_id":`...)
		b = strconv.AppendInt(b, int64(p.ReservationID), 10)
	}
	if p.AutoDowngraded {
		b = append(b, `,"auto_downgraded":true`...)
	}
	if p.SwitchBack != 0 {
		b = append(b, `,"switch_back":`...)
		b = strconv.AppendInt(b, p.SwitchBack, 10)
	}
	if p.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if p.Reason != "" {
		b = append(b, `,"reason":`...)
		b = jsonenc.AppendString(b, p.Reason)
	}
	if p.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, p.Seq, 10)
	}
	return append(b, "}\n"...)
}

// appendJSON appends p as json.Encoder.Encode writes it.
func (p CancelResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"cancelled":`...)
	b = strconv.AppendBool(b, p.Cancelled)
	b = append(b, `,"job_id":`...)
	b = strconv.AppendInt(b, int64(p.JobID), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(p.Node), 10)
	if p.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, p.Seq, 10)
	}
	return append(b, "}\n"...)
}

// writeOK answers 200 with the JSON body in bp, as writeJSON would, and
// returns bp to the pool.
func writeOK(w http.ResponseWriter, bp *[]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(*bp)
	putBuf(bp)
}

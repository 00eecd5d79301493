// Package jsonenc streams the one JSON dialect the daemon's durable
// snapshots are pinned to: exactly the bytes encoding/json's
// MarshalIndent(v, "", "  ") produces — two-space nested indent, `{}`
// and `[]` for empty containers, integer map keys ordered by their
// decimal strings, encoding/json's float format and its refusal of NaN
// and ±Inf — written by hand instead of through reflection, into one
// small fixed buffer that is flushed to the underlying writer as it
// fills. Nothing the size of the document is ever allocated.
//
// The caller supplies structure as a token stream (Object, Key, Int,
// …) and is trusted to balance it; the encoder owns separators,
// newlines and indentation. The bytes are pinned because recovery's
// byte-identity contract, the benchmark's digest checks and every
// snapshot already on disk compare or decode them; the differential
// tests in this package, internal/qos and internal/server hold the
// output to encoding/json's.
//
// AppendFloat and AppendString are the scalar half of the same dialect
// in compact form, for callers that append a small fixed-schema record
// into a reused buffer: the WAL's records and the daemon's admit
// responses. Encoder.Float formats through AppendFloat, so there is one
// float formatter for all three.
package jsonenc

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"
)

const (
	// bufSize is the whole of the encoder's working memory; flushAt
	// leaves room for any one token (separator, newline, indent, key,
	// number), so appends never grow the buffer.
	bufSize = 32 << 10
	flushAt = bufSize - 512
)

// Encoder writes one indented JSON document to an io.Writer. Errors —
// the writer's, or an unencodable float — are sticky: once one occurs
// every later call is a no-op and Flush returns it, so call sites check
// once at the end. An Encoder is reusable across documents via Reset.
type Encoder struct {
	w       io.Writer
	buf     []byte
	depth   int
	empty   bool // the innermost open container has no member yet
	written int64
	err     error
	keys    []int // IntKeys scratch
}

// New returns an encoder writing to w.
func New(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, bufSize)}
}

// Reset starts a new document on w, keeping the buffer and scratch.
func (e *Encoder) Reset(w io.Writer) {
	e.w, e.buf, e.depth, e.empty, e.written, e.err = w, e.buf[:0], 0, false, 0, nil
}

// Flush writes out what is buffered and returns the document's first
// error, if any.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		n, err := e.w.Write(e.buf)
		e.written += int64(n)
		e.err = err
	}
	e.buf = e.buf[:0]
	return e.err
}

// Written returns how many bytes of the current document have reached
// the writer (everything, after a successful Flush).
func (e *Encoder) Written() int64 { return e.written }

// member opens the next member of the enclosing container: the comma
// after a sibling, then a fresh indented line. It is also where the
// buffer drains, so no token ever has to.
func (e *Encoder) member() {
	if len(e.buf) >= flushAt {
		e.Flush()
	}
	if !e.empty {
		e.buf = append(e.buf, ',')
	}
	e.empty = false
	e.newline()
}

func (e *Encoder) newline() {
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

// Object opens an object as the current value.
func (e *Encoder) Object() { e.open('{') }

// Array opens an array as the current value.
func (e *Encoder) Array() { e.open('[') }

func (e *Encoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.empty = true
}

// EndObject closes the innermost object.
func (e *Encoder) EndObject() { e.close('}') }

// EndArray closes the innermost array.
func (e *Encoder) EndArray() { e.close(']') }

func (e *Encoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.empty = false
	e.buf = append(e.buf, c)
}

// Key starts an object member. name must need no JSON escaping (the
// snapshot's keys are fixed identifiers).
func (e *Encoder) Key(name string) {
	e.member()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':', ' ')
}

// IntKey starts a member of an integer-keyed map.
func (e *Encoder) IntKey(k int) {
	e.member()
	e.buf = append(e.buf, '"')
	e.buf = strconv.AppendInt(e.buf, int64(k), 10)
	e.buf = append(e.buf, '"', ':', ' ')
}

// Elem starts an array element; the value follows.
func (e *Encoder) Elem() { e.member() }

// Int writes an integer value.
func (e *Encoder) Int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

// IntField is Key followed by Int.
func (e *Encoder) IntField(name string, v int64) {
	e.Key(name)
	e.Int(v)
}

// Float writes v as AppendFloat does. NaN and ±Inf fail the document
// with encoding/json's own error.
func (e *Encoder) Float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	e.buf = AppendFloat(e.buf, v)
}

// AppendFloat appends finite v as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form only below 1e-6
// or from 1e21 up, with a two-digit negative exponent's leading zero
// dropped. encoding/json refuses NaN and ±Inf, so callers check for
// them first; what this appends for them is not JSON.
func AppendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const (
	hexDigits = "0123456789abcdef"
	lineSep   = 0x2028 // U+2028 LINE SEPARATOR
	paraSep   = 0x2029 // U+2029 PARAGRAPH SEPARATOR
)

// AppendString appends s as a compact JSON string exactly as
// encoding/json.Marshal writes it: `"` and `\` backslash-escaped; \b,
// \f, \n, \r and \t by name; every other control byte and the
// HTML-sensitive <, > and & as a six-character \u00XX escape; each
// byte of invalid UTF-8 as the escape of U+FFFD; U+2028 and U+2029 as
// their escapes. Everything else is copied as is.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == lineSep || c == paraSep:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Line ends the document with the newline json.Encoder.Encode appends.
func (e *Encoder) Line() { e.buf = append(e.buf, '\n') }

// IntKeys returns m's keys in the order encoding/json writes a
// map[int]V: sorted as strings, so 10 comes before 9 and every negative
// key before 0. The slice is e's scratch, valid until the next call.
func IntKeys[V any](e *Encoder, m map[int]V) []int {
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpDecimal)
	e.keys = keys
	return keys
}

// pow10[n] is 10^n; 10^19 is the last power a uint64 holds.
var pow10 = func() (t [20]uint64) {
	t[0] = 1
	for n := 1; n < len(t); n++ {
		t[n] = 10 * t[n-1]
	}
	return t
}()

// cmpDecimal compares a and b as strings.Compare(strconv.Itoa(a),
// strconv.Itoa(b)) would, without writing either out: '-' sorts below
// every digit, so negatives come first; digit strings compare as their
// values left-justified to 19 places; and of two that then tie ("1",
// "10", "100") the shorter is a proper prefix and sorts first.
func cmpDecimal(a, b int) int {
	if (a < 0) != (b < 0) {
		if a < 0 {
			return -1
		}
		return 1
	}
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua, ub = -ua, -ub
	}
	na, nb := 1, 1
	for na < 19 && ua >= pow10[na] {
		na++
	}
	for nb < 19 && ub >= pow10[nb] {
		nb++
	}
	if c := cmp.Compare(ua*pow10[19-na], ub*pow10[19-nb]); c != 0 {
		return c
	}
	return na - nb
}

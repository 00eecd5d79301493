package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// encodeAny walks a tree of the value kinds the snapshots use —
// map[int]any, []any, int, float64, nil — so any such tree can be
// rendered both ways and compared.
func encodeAny(e *Encoder, v any) {
	switch v := v.(type) {
	case nil:
		e.Null()
	case int:
		e.Int(int64(v))
	case float64:
		e.Float(v)
	case []any:
		e.Array()
		for _, el := range v {
			e.Elem()
			encodeAny(e, el)
		}
		e.EndArray()
	case map[int]any:
		e.Object()
		// The snapshots never walk one map inside another; this walker
		// does, so it copies the keys out of the shared scratch.
		for _, k := range append([]int(nil), IntKeys(e, v)...) {
			e.IntKey(k)
			encodeAny(e, v[k])
		}
		e.EndObject()
	default:
		panic("unsupported kind")
	}
}

func randTree(rng *rand.Rand, depth int) any {
	switch k := rng.Intn(8); {
	case depth > 0 && k == 0:
		arr := make([]any, rng.Intn(4))
		for i := range arr {
			arr[i] = randTree(rng, depth-1)
		}
		return arr
	case depth > 0 && k <= 2:
		m := map[int]any{}
		for i := rng.Intn(5); i > 0; i-- {
			// Signs and digit counts mixed so string order differs from
			// numeric order.
			key := rng.Intn(2000) - 300
			if rng.Intn(4) == 0 {
				key = int(rng.Uint64()) >> uint(rng.Intn(64))
			}
			m[key] = randTree(rng, depth-1)
		}
		return m
	case k == 3:
		return nil
	case k == 4:
		return math.Float64frombits(rng.Uint64())
	case k == 5:
		return []float64{0, 0.05, 0.1, 1e-7, 1, 1e21, 1e-6, 123456789.125, -2.5e-9, 1e20}[rng.Intn(10)]
	default:
		return int(rng.Int63()>>uint(rng.Intn(63))) * (1 - 2*rng.Intn(2))
	}
}

// TestCmpDecimal holds the arithmetic key order to the string order it
// stands for, on every pairing of the values where it could go wrong:
// both signs, every digit count, powers of ten and their neighbours, the
// ends of the range.
func TestCmpDecimal(t *testing.T) {
	vals := []int{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 19, 2, 100, 1000000}
	for n, p := 0, 1; n <= 18; n, p = n+1, p*10 { // 1 … 10^18
		vals = append(vals, p-1, p, p+1, 9*p, -p+1, -p, -p-1, -9*p)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		vals = append(vals, int(rng.Uint64())>>uint(rng.Intn(64)))
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmpDecimal(a, b), strings.Compare(strconv.Itoa(a), strconv.Itoa(b)); (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Fatalf("cmpDecimal(%d, %d) = %d, strings compare %d", a, b, got, want)
			}
		}
	}
}

// TestMatchesEncodingJSON holds the hand-written dialect to
// MarshalIndent on random trees, including the refusal of NaN and Inf.
func TestMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	e := New(&buf)
	for i := 0; i < 3000; i++ {
		tree := randTree(rng, 5)
		want, wantErr := json.MarshalIndent(tree, "", "  ")
		buf.Reset()
		e.Reset(&buf)
		encodeAny(e, tree)
		err := e.Flush()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("tree %d: error %v, encoding/json %v", i, err, wantErr)
		}
		if err != nil {
			var uv *json.UnsupportedValueError
			if !errors.As(err, &uv) {
				t.Fatalf("tree %d: error %T, want *json.UnsupportedValueError", i, err)
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("tree %d:\ngot:\n%s\nwant:\n%s", i, buf.Bytes(), want)
		}
		if e.Written() != int64(len(want)) {
			t.Fatalf("tree %d: Written %d, wrote %d", i, e.Written(), len(want))
		}
	}
}

// randString mixes what AppendString must escape — quotes, backslashes,
// every control byte, <, > and &, U+2028/2029, invalid UTF-8 (lone
// continuation bytes, truncated sequences, surrogates, overlongs) — with
// plain ASCII and valid multi-byte runes.
func randString(rng *rand.Rand) string {
	pieces := []string{"a", "job", " ", `"`, `\`, "<", ">", "&", "\u2028", "\u2029", "\u00e9", "\u65e5\u672c", "\U0001F600",
		"\x7f", "\x80", "\xbf", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\xc0\xaf", "\xff", "\ufffd"}
	var b []byte
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(3) {
		case 0:
			b = append(b, byte(rng.Intn(0x20)))
		case 1:
			b = append(b, byte(rng.Intn(256)))
		default:
			b = append(b, pieces[rng.Intn(len(pieces))]...)
		}
	}
	return string(b)
}

// TestAppendStringMatchesMarshal holds AppendString to json.Marshal on
// every byte alone and on random strings, invalid UTF-8 included.
func TestAppendStringMatchesMarshal(t *testing.T) {
	var cases []string
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		cases = append(cases, randString(rng))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("prefix"), s); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s", s, got[len("prefix"):], want)
		}
	}
}

// TestAppendFloatMatchesMarshal holds AppendFloat to json.Marshal on
// random bit patterns and on both sides of the exponent-form cut-offs.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		-1e-7, 5e-324, math.MaxFloat64, 0.05, 1.0 / 3, 1e-10, 1e100}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			continue // NaN, ±Inf: callers check before appending
		}
		if got := AppendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, json.Marshal %s", v, got, want)
		}
	}
}

type chunkWriter struct {
	bytes.Buffer
	largest, failAfter int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	if len(p) > w.largest {
		w.largest = len(p)
	}
	if w.failAfter > 0 && w.Len()+len(p) > w.failAfter {
		return 0, errors.New("disk full")
	}
	return w.Buffer.Write(p)
}

// TestStreamsThroughFixedBuffer writes a document many times the buffer
// and checks the bytes, that no write exceeded the buffer, and that a
// writer error sticks.
func TestStreamsThroughFixedBuffer(t *testing.T) {
	doc := make([]any, 20000)
	for i := range doc {
		doc[i] = map[int]any{i: []any{i, -i}, -i - 1: 0.05}
	}
	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var w chunkWriter
	e := New(&w)
	encodeAny(e, doc)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatal("streamed document differs from MarshalIndent")
	}
	if len(want) < 10*bufSize || w.largest > bufSize || cap(e.buf) != bufSize {
		t.Fatalf("document %d bytes, largest write %d, buffer cap %d (bufSize %d)", len(want), w.largest, cap(e.buf), bufSize)
	}

	w = chunkWriter{failAfter: 3 * bufSize}
	e.Reset(&w)
	encodeAny(e, doc)
	if err := e.Flush(); err == nil || w.Len() > 3*bufSize {
		t.Fatalf("writer failure not sticky: err %v, %d bytes written", err, w.Len())
	}
}

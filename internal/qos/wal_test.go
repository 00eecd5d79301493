package qos

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func walRec(seq int64, job int) WALRecord {
	return WALRecord{
		Seq:     seq,
		Op:      WALAdmit,
		JobID:   job,
		Mode:    Strict(),
		RUM:     RUM{Resources: PresetMedium(), MaxWallClock: 1000, Deadline: 5000},
		Arrival: int64(job) * 10,
		Node:    0,
		Dec:     Decision{Accepted: true, Start: int64(job) * 10, ReservationID: job},
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var want []WALRecord
	for i := 1; i <= 5; i++ {
		rec := walRec(int64(i), i)
		if i == 3 {
			rec = WALRecord{Seq: 3, Op: WALCancel, JobID: 1, Mode: Strict(), Now: 123}
		}
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, goodSize, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if goodSize != fi.Size() {
		t.Errorf("goodSize %d != file size %d", goodSize, fi.Size())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWALVersionMismatchTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("cmpqos-wal v99\nwhatever"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadWAL(path)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.What != "wal" || ve.Got != 99 || ve.Want != walVersion {
		t.Errorf("unexpected VersionError %+v", ve)
	}
	if want := fmt.Sprintf("qos: wal version 99, want %d", walVersion); err.Error() != want {
		t.Errorf("error text %q, want %q", err, want)
	}
}

func TestSnapshotVersionMismatchTyped(t *testing.T) {
	_, err := RestoreLAC(strings.NewReader(`{"version": 99, "capacity": {"Cores":4,"CacheWays":16}}`))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.What != "snapshot" || ve.Got != 99 || ve.Want != snapshotVersion {
		t.Errorf("unexpected VersionError %+v", ve)
	}
}

func TestWALForeignFileRejected(t *testing.T) {
	// A foreign file, and one shorter than the header that is no prefix
	// of it: neither is a torn creation.
	for _, data := range []string{"PK\x03\x04 this is a zip, not a wal", "PK\x03\x04"} {
		if _, _, err := DecodeWAL([]byte(data)); err == nil {
			t.Errorf("foreign file %q accepted as WAL", data)
		}
	}
}

// TestWALUndecodableRecordEndsTheLog: a frame whose checksum holds but
// whose payload is no record ends the decode at the frame before it.
func TestWALUndecodableRecordEndsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(WALRecord{Seq: 1, Op: WALAdmit, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	good := int64(len(data))
	payload := []byte("not json")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	data = append(append(data, frame...), payload...)
	recs, goodSize, err := DecodeWAL(data)
	if err != nil || len(recs) != 1 || goodSize != good {
		t.Errorf("decoded %d records to %d (err %v), want 1 record to %d", len(recs), goodSize, err, good)
	}
}

func TestWALTornHeaderIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	// A crash between create and the header sync leaves a prefix of the
	// header; no record can have been acknowledged, so this is an empty
	// log, not an error.
	if err := os.WriteFile(path, []byte("cmpqos-w"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, goodSize, err := ReadWAL(path)
	if err != nil || len(recs) != 0 || goodSize != 0 {
		t.Fatalf("torn header: recs=%d goodSize=%d err=%v", len(recs), goodSize, err)
	}
}

// TestWALTornTailRecovers pins the crash contract: whatever is chopped
// off or scribbled over the tail, decoding returns exactly the intact
// prefix, and truncating to goodSize plus appending keeps the log
// readable.
func TestWALTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 1; i <= n; i++ {
		if err := w.Append(walRec(int64(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allRecs, _, err := DecodeWAL(whole)
	if err != nil || len(allRecs) != n {
		t.Fatalf("full decode: %d recs, err %v", len(allRecs), err)
	}

	for cut := len(whole) - 1; cut > len(walHeader); cut -= 7 {
		recs, goodSize, err := DecodeWAL(whole[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if goodSize > int64(cut) {
			t.Fatalf("cut %d: goodSize %d beyond data", cut, goodSize)
		}
		// The surviving records are a strict prefix of the originals.
		for i, r := range recs {
			if r != allRecs[i] {
				t.Fatalf("cut %d: record %d diverged", cut, i)
			}
		}
		// Truncate-and-append keeps working.
		if cut == len(whole)-1 {
			tp := filepath.Join(dir, "trunc.log")
			if err := os.WriteFile(tp, whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			aw, err := OpenWALOn(OS, tp, goodSize, false)
			if err != nil {
				t.Fatal(err)
			}
			extra := walRec(int64(n+1), n+1)
			if err := aw.Append(extra); err != nil {
				t.Fatal(err)
			}
			if err := aw.Close(); err != nil {
				t.Fatal(err)
			}
			back, _, err := ReadWAL(tp)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(recs)+1 || back[len(back)-1] != extra {
				t.Fatalf("append after truncation: got %d records", len(back))
			}
		}
	}

	// Corrupt (rather than cut) the last record's payload: CRC must
	// reject it and decode must stop at the previous record.
	mut := append([]byte(nil), whole...)
	mut[len(mut)-3] ^= 0xff
	recs, _, err := DecodeWAL(mut)
	if err != nil || len(recs) != n-1 {
		t.Fatalf("corrupted tail: %d recs, err %v", len(recs), err)
	}
}

// TestWALAppendAllocatesNothing: after warm-up, an append through the
// OS filesystem allocates nothing — the seam is an interface call on a
// pointer, and the frame buffer is reused — with and without the
// per-record fsync.
func TestWALAppendAllocatesNothing(t *testing.T) {
	for _, syncEach := range []bool{false, true} {
		w, err := CreateWAL(filepath.Join(t.TempDir(), "wal.log"), syncEach)
		if err != nil {
			t.Fatal(err)
		}
		rec := walRec(1, 1)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			rec.Seq++
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("syncEach %v: an append allocated %.1f times", syncEach, allocs)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOSSyncDirOfNoDirectory: the OS seam's directory sync reports a
// directory it cannot open.
func TestOSSyncDirOfNoDirectory(t *testing.T) {
	if err := OS.SyncDir(filepath.Join(t.TempDir(), "gone")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("SyncDir of a missing directory = %v, want fs.ErrNotExist", err)
	}
}

// FuzzWALReplay feeds arbitrary bytes (seeded with valid logs and
// mutations of them) through the decoder: it must never panic, must
// only ever return an intact prefix, and truncating to goodSize must
// re-decode to exactly the same records.
func FuzzWALReplay(f *testing.F) {
	build := func(n int) []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, fmt.Sprintf("wal-%d.log", n))
		w, err := CreateWAL(path, false)
		if err != nil {
			f.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if err := w.Append(walRec(int64(i), i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add([]byte{})
	f.Add([]byte("cmpqos-wal v1\n"))
	f.Add([]byte("cmpqos-wal v2\n"))
	valid := build(4)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	mut := append([]byte(nil), valid...)
	mut[len(walHeader)+3] ^= 0x40
	f.Add(mut)
	huge := append([]byte(nil), valid[:len(walHeader)]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodSize, err := DecodeWAL(data)
		if err != nil {
			var ve *VersionError
			if errors.As(err, &ve) && ve.Got == walVersion {
				t.Fatalf("VersionError for current version: %v", ve)
			}
			return
		}
		if goodSize < 0 || goodSize > int64(len(data)) {
			t.Fatalf("goodSize %d out of range [0,%d]", goodSize, len(data))
		}
		if len(recs) > 0 && goodSize == 0 {
			t.Fatalf("records decoded but goodSize 0")
		}
		// Decoding the good prefix reproduces the same records: replay
		// after truncation recovers to exactly the last good record.
		again, againSize, err := DecodeWAL(data[:goodSize])
		if err != nil {
			t.Fatalf("re-decode of good prefix failed: %v", err)
		}
		if againSize != goodSize || len(again) != len(recs) {
			t.Fatalf("re-decode: %d records / %d bytes, want %d / %d",
				len(again), againSize, len(recs), goodSize)
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d changed across re-decode", i)
			}
		}
		// CRC-framed decode integrity: every frame length within bounds.
		crcCheck(t, data[:goodSize])
	})
}

// crcCheck re-walks the frames of a decoded-good region and verifies
// the structural invariants the decoder relies on.
func crcCheck(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	off := len(walHeader)
	if len(data) < off {
		return
	}
	for off < len(data) {
		if len(data)-off < 8 {
			t.Fatalf("good region ends inside a frame header")
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || off+8+n > len(data) {
			t.Fatalf("good region ends inside a frame body")
		}
		if crc32.ChecksumIEEE(data[off+8:off+8+n]) != sum {
			t.Fatalf("bad CRC inside good region")
		}
		off += 8 + n
	}
}

// FuzzWALRecordEncoding holds the record appender to json.Marshal, the
// encoder every log on disk was written with: equal bytes for every
// record, and a refusal — through WALWriter.Append, as encoding/json's
// own error — exactly when a slack is NaN or infinite.
func FuzzWALRecordEncoding(f *testing.F) {
	f.Add(int64(1), "admit", 7, uint8(0), uint64(0), 1, 7, 0, 0, int64(1000), int64(5000), int64(10), false, uint64(0),
		3, uint8(1), math.Float64bits(0.05), true, int64(40), 2, false, int64(0), "", int64(0))
	f.Add(int64(9), "cancel", -3, uint8(0), uint64(0), 0, 0, 0, 0, int64(0), int64(0), int64(0), false, uint64(0),
		0, uint8(0), uint64(0), false, int64(0), 0, false, int64(0), "", int64(123))
	f.Add(int64(1<<40), "a<b>&\"c\"", 1<<40, uint8(2), math.Float64bits(1e-7), 4, 16, 512, 1000, int64(-1), int64(1<<62), int64(-5), true, math.Float64bits(1e21),
		-1, uint8(1), math.Float64bits(1.0/3), true, int64(-9), -4, true, int64(77), "no fit\n\t\u2028\u2029\xff\x01", int64(-1))
	f.Add(int64(2), "admit", 1, uint8(1), math.Float64bits(math.NaN()), 1, 1, 0, 0, int64(1), int64(2), int64(3), true, math.Float64bits(0.05),
		0, uint8(1), math.Float64bits(0.05), false, int64(0), 0, false, int64(0), "", int64(0))
	f.Add(int64(3), "admit", 1, uint8(0), uint64(0), 1, 1, 0, 0, int64(1), int64(2), int64(3), true, math.Float64bits(math.Inf(-1)),
		0, uint8(1), math.Float64bits(0.05), false, int64(0), 0, false, int64(0), "", int64(0))
	f.Add(int64(4), "admit", 1, uint8(1), math.Float64bits(0.05), 1, 1, 0, 0, int64(1), int64(2), int64(3), false, uint64(0),
		0, uint8(1), math.Float64bits(math.Inf(1)), false, int64(0), 0, false, int64(0), "", int64(0))
	w, err := CreateWAL(filepath.Join(f.TempDir(), "wal.log"), false)
	if err != nil {
		f.Fatal(err)
	}
	defer w.Close()
	f.Fuzz(func(t *testing.T, seq int64, op string, job int, kind uint8, slack uint64,
		cores, ways, mem, bw int, tw, deadline, arrival int64, negotiate bool, maxSlack uint64,
		node int, finalKind uint8, finalSlack uint64,
		accepted bool, start int64, resID int, autoDown bool, switchBack int64, reason string, now int64) {
		rec := WALRecord{
			Seq: seq, Op: WALOp(op), JobID: job,
			Mode:      Mode{Kind: Kind(kind % 4), Slack: math.Float64frombits(slack)},
			RUM:       RUM{Resources: ResourceVector{Cores: cores, CacheWays: ways, MemoryMB: mem, BandwidthMBps: bw}, MaxWallClock: tw, Deadline: deadline},
			Arrival:   arrival,
			Negotiate: negotiate,
			MaxSlack:  math.Float64frombits(maxSlack),
			Node:      node,
			FinalMode: Mode{Kind: Kind(finalKind % 4), Slack: math.Float64frombits(finalSlack)},
			Dec:       Decision{Accepted: accepted, Start: start, ReservationID: resID, AutoDowngraded: autoDown, SwitchBack: switchBack, Reason: reason},
			Now:       now,
		}
		want, wantErr := json.Marshal(rec)
		got, ok := appendWALRecord([]byte("hdr"), &rec)
		if ok != (wantErr == nil) {
			t.Fatalf("appender ok=%v, json.Marshal error %v", ok, wantErr)
		}
		if err := w.Append(rec); (err != nil) != (wantErr != nil) {
			t.Fatalf("Append error %v, json.Marshal error %v", err, wantErr)
		} else if err != nil {
			var uv *json.UnsupportedValueError
			if !errors.As(err, &uv) {
				t.Fatalf("Append error %T %v, want encoding/json's *UnsupportedValueError", err, err)
			}
			return
		}
		if !bytes.Equal(got[len("hdr"):], want) {
			t.Fatalf("appender:\n%s\njson.Marshal:\n%s", got[len("hdr"):], want)
		}
	})
}

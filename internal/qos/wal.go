package qos

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strconv"

	"cmpqos/internal/jsonenc"
)

// The write-ahead log complements snapshots (snapshot.go) for a
// long-running admission daemon: every committed admission decision and
// cancellation is appended as one framed record, so a crash between
// snapshots loses nothing that was acknowledged. Recovery loads the
// last snapshot and replays the records after it; replay re-runs the
// recorded operation against the restored controllers and verifies the
// outcome matches what was logged, so silent state divergence is
// detected instead of compounding.
//
// Framing is designed for torn tails: each record is
//
//	u32 payload length | u32 CRC32 (IEEE) of payload | payload (JSON)
//
// in little-endian, preceded by a one-line versioned file header. A
// crash mid-append leaves a short or CRC-invalid tail; DecodeWAL stops
// at the last intact record and reports how many bytes were good so the
// caller can truncate and keep appending. It never panics on arbitrary
// bytes (FuzzWALReplay pins this).

// walVersion is bumped on incompatible record-format changes, alongside
// snapshotVersion.
const walVersion = 1

// walHeader is the file's first line; the version is parsed back out so
// a future layout can migrate instead of misparsing.
var walHeader = fmt.Sprintf("cmpqos-wal v%d\n", walVersion)

// maxWALRecord bounds a single record's payload; anything larger is
// treated as corruption rather than an allocation request.
const maxWALRecord = 1 << 26

// VersionError reports a snapshot or WAL written by an incompatible
// layout version. It is a distinct type so callers can tell "this is
// our state, from another era" apart from corruption or I/O failure.
type VersionError struct {
	What string // "snapshot" or "wal"
	Got  int
	Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("qos: %s version %d, want %d", e.What, e.Got, e.Want)
}

// WALOp names a logged operation.
type WALOp string

const (
	// WALAdmit records one decided submission — accepted or rejected —
	// including the negotiation path taken, so replay reproduces the
	// controller's counters and reservations exactly.
	WALAdmit WALOp = "admit"
	// WALCancel records a job completion/cancellation.
	WALCancel WALOp = "cancel"
)

// WALRecord is one logged admission-state transition. Admit records
// carry the fully resolved request (arrival stamped, negotiation
// parameters fixed) plus the decision that was made; replay re-runs the
// same call and verifies the decision matches. Cancel records carry the
// resolved completion instant.
type WALRecord struct {
	Seq int64 `json:"seq"`
	Op  WALOp `json:"op"`

	JobID int `json:"job"`

	// Admit fields.
	Mode      Mode     `json:"mode"`
	RUM       RUM      `json:"rum"`
	Arrival   int64    `json:"arrival"`
	Negotiate bool     `json:"negotiate,omitempty"`
	MaxSlack  float64  `json:"max_slack,omitempty"`
	Node      int      `json:"node"`
	FinalMode Mode     `json:"final_mode"`
	Dec       Decision `json:"dec"`

	// Cancel fields.
	Now int64 `json:"now,omitempty"`
}

// appendWALRecord appends rec's JSON payload to dst: byte for byte what
// json.Marshal(rec) writes (FuzzWALRecordEncoding holds it there), with
// no reflection and no allocation beyond dst's growth. ok is false, and
// dst unusable, when a slack is NaN or infinite — a record encoding/json
// refuses to write.
func appendWALRecord(dst []byte, rec *WALRecord) (_ []byte, ok bool) {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, rec.Seq, 10)
	dst = append(dst, `,"op":`...)
	dst = jsonenc.AppendString(dst, string(rec.Op))
	dst = append(dst, `,"job":`...)
	dst = strconv.AppendInt(dst, int64(rec.JobID), 10)
	dst = append(dst, `,"mode":`...)
	if dst, ok = appendMode(dst, rec.Mode); !ok {
		return dst, false
	}
	dst = append(dst, `,"rum":{"Resources":{"Cores":`...)
	r := &rec.RUM
	dst = strconv.AppendInt(dst, int64(r.Resources.Cores), 10)
	dst = append(dst, `,"CacheWays":`...)
	dst = strconv.AppendInt(dst, int64(r.Resources.CacheWays), 10)
	dst = append(dst, `,"MemoryMB":`...)
	dst = strconv.AppendInt(dst, int64(r.Resources.MemoryMB), 10)
	dst = append(dst, `,"BandwidthMBps":`...)
	dst = strconv.AppendInt(dst, int64(r.Resources.BandwidthMBps), 10)
	dst = append(dst, `},"MaxWallClock":`...)
	dst = strconv.AppendInt(dst, r.MaxWallClock, 10)
	dst = append(dst, `,"Deadline":`...)
	dst = strconv.AppendInt(dst, r.Deadline, 10)
	dst = append(dst, `},"arrival":`...)
	dst = strconv.AppendInt(dst, rec.Arrival, 10)
	if rec.Negotiate {
		dst = append(dst, `,"negotiate":true`...)
	}
	if rec.MaxSlack != 0 {
		if !finite(rec.MaxSlack) {
			return dst, false
		}
		dst = append(dst, `,"max_slack":`...)
		dst = jsonenc.AppendFloat(dst, rec.MaxSlack)
	}
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(rec.Node), 10)
	dst = append(dst, `,"final_mode":`...)
	if dst, ok = appendMode(dst, rec.FinalMode); !ok {
		return dst, false
	}
	d := &rec.Dec
	dst = append(dst, `,"dec":{"Accepted":`...)
	dst = strconv.AppendBool(dst, d.Accepted)
	dst = append(dst, `,"Start":`...)
	dst = strconv.AppendInt(dst, d.Start, 10)
	dst = append(dst, `,"ReservationID":`...)
	dst = strconv.AppendInt(dst, int64(d.ReservationID), 10)
	dst = append(dst, `,"AutoDowngraded":`...)
	dst = strconv.AppendBool(dst, d.AutoDowngraded)
	dst = append(dst, `,"SwitchBack":`...)
	dst = strconv.AppendInt(dst, d.SwitchBack, 10)
	dst = append(dst, `,"Reason":`...)
	dst = jsonenc.AppendString(dst, d.Reason)
	dst = append(dst, '}')
	if rec.Now != 0 {
		dst = append(dst, `,"now":`...)
		dst = strconv.AppendInt(dst, rec.Now, 10)
	}
	return append(dst, '}'), true
}

func appendMode(dst []byte, m Mode) ([]byte, bool) {
	if !finite(m.Slack) {
		return dst, false
	}
	dst = append(dst, `{"Kind":`...)
	dst = strconv.AppendInt(dst, int64(m.Kind), 10)
	dst = append(dst, `,"Slack":`...)
	dst = jsonenc.AppendFloat(dst, m.Slack)
	return append(dst, '}'), true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FS is the filesystem under the daemon's durable state: the WAL
// writer's writes, syncs and closes, recovery's read, truncate and open,
// and the snapshot writer's create, rename, remove and directory sync
// all go through it, and through nothing else. OS is its one
// production implementation; tests put an in-memory disk behind it that
// fails and crashes on a schedule.
type FS interface {
	// Create creates or truncates a file for writing.
	Create(name string) (File, error)
	// Append opens an existing file for writing at its end.
	Append(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Truncate(name string, size int64) error
	Rename(from, to string) error
	Remove(name string) error
	// SyncDir makes the creates, renames and removes in dir durable.
	SyncDir(dir string) error
}

// File is a file of an FS opened for writing.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}
func (osFS) Append(name string) (File, error)       { return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0) }
func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) Rename(from, to string) error           { return os.Rename(from, to) }
func (osFS) Remove(name string) error               { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WALWriter appends records to a log file. With syncEach set, every
// append is fsynced before returning, so an acknowledged record
// survives kill -9; without it, durability is best-effort until Close.
type WALWriter struct {
	f        File
	syncEach bool
	buf      []byte
	size     int64
}

// Size returns the log's current byte length (header plus every record
// appended so far) — the compaction trigger for byte-bounded logs.
func (w *WALWriter) Size() int64 { return w.size }

// CreateWAL creates (truncating) a log at path on the OS filesystem; see
// CreateWALOn.
func CreateWAL(path string, syncEach bool) (*WALWriter, error) {
	return CreateWALOn(OS, path, syncEach)
}

// CreateWALOn creates (truncating) a log at path and writes the
// versioned header, durably whatever syncEach says: a log renamed into
// place must never be one that a crash can leave headerless.
func CreateWALOn(fsys FS, path string, syncEach bool) (*WALWriter, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walHeader)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &WALWriter{f: f, syncEach: syncEach, size: int64(len(walHeader))}, nil
}

// OpenWALOn reopens the log at path for appending after its first size
// bytes — the goodSize ReadWALOn reported — cutting the torn tail a
// crash may have left past them.
func OpenWALOn(fsys FS, path string, size int64, syncEach bool) (*WALWriter, error) {
	if err := fsys.Truncate(path, size); err != nil {
		return nil, err
	}
	f, err := fsys.Append(path)
	if err != nil {
		return nil, err
	}
	return &WALWriter{f: f, syncEach: syncEach, size: size}, nil
}

// Append frames and writes one record. The frame is assembled into one
// buffer — the payload appended straight after the 8-byte header — and
// issued as a single write so a crash can only tear the record's tail,
// never interleave two records.
func (w *WALWriter) Append(rec WALRecord) error {
	b, ok := appendWALRecord(append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0), &rec)
	if !ok {
		// A NaN or infinite slack: encoding/json refuses it, and its
		// refusal is the error.
		_, err := json.Marshal(rec)
		return fmt.Errorf("qos: encoding wal record %d: %w", rec.Seq, err)
	}
	w.buf = b
	payload := b[8:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(b); err != nil {
		return err
	}
	w.size += int64(len(b))
	if w.syncEach {
		return w.f.Sync()
	}
	return nil
}

// Close syncs and closes the log.
func (w *WALWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// DecodeWAL parses a log image. It returns the records up to the last
// intact one and goodSize, the byte offset just past it: a torn or
// corrupted tail (short frame, bad CRC, malformed JSON) is NOT an error
// — it is the expected shape of a crash — and simply ends the decode,
// so recovery resumes from the last good record. A wrong or foreign
// header is an error: *VersionError for a recognizable cmpqos WAL of
// another version, a plain error for a file that is not a WAL at all.
// An image shorter than the header with no records yet (a crash between
// file creation and the header sync) decodes as an empty log.
func DecodeWAL(data []byte) (recs []WALRecord, goodSize int64, err error) {
	if len(data) < len(walHeader) {
		// A prefix of a valid header is a torn creation; anything else
		// is not our file.
		if len(data) == 0 || walHeader[:len(data)] == string(data) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("qos: not a cmpqos WAL")
	}
	var got int
	if n, serr := fmt.Sscanf(string(data[:len(walHeader)]), "cmpqos-wal v%d\n", &got); n != 1 || serr != nil {
		return nil, 0, fmt.Errorf("qos: not a cmpqos WAL")
	}
	if got != walVersion {
		return nil, 0, &VersionError{What: "wal", Got: got, Want: walVersion}
	}
	off := int64(len(walHeader))
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxWALRecord || int64(len(rest)) < 8+n {
			return recs, off, nil
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, nil
		}
		var rec WALRecord
		if json.Unmarshal(payload, &rec) != nil {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += 8 + n
	}
}

// ReadWAL decodes the log at path on the OS filesystem; see ReadWALOn.
func ReadWAL(path string) (recs []WALRecord, goodSize int64, err error) { return ReadWALOn(OS, path) }

// ReadWALOn decodes the log at path (see DecodeWAL). A missing file is
// an error that matches fs.ErrNotExist.
func ReadWALOn(fsys FS, path string) (recs []WALRecord, goodSize int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return DecodeWAL(data)
}

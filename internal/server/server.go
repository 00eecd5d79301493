// Package server is the admission daemon behind cmd/qosd: the paper's
// §5 user-level admission controller run as a long-lived service making
// live yes/no QoS promises over HTTP/JSON, with robustness as the
// design headline.
//
// Durability: every admission decision and cancellation is appended to a
// write-ahead log (internal/qos WAL) and fsynced before it is applied
// and before the client sees the answer, and the full controller state is
// periodically snapshotted; recovery loads the last snapshot and
// replays the log tail, re-running each recorded operation and
// verifying it reproduces the logged outcome, so a kill -9 restarts to
// the exact pre-crash admission state (byte-identical state encoding —
// server_test pins this) and divergence is detected rather than
// compounded.
//
// Overload: admission work passes through a bounded queue. When the
// queue saturates, requests are shed with 503 instead of growing
// memory; on the way to saturation the daemon walks the same
// degradation ladder the simulator uses under faults (DESIGN §8) —
// scavenger (Opportunistic) submissions are shed first, then Strict
// submissions are renegotiated down the mode ladder
// (Strict → Elastic → Opportunistic) instead of consuming a
// reservation slot, and only past that do requests bounce. Every
// request carries a queue-wait budget (client-settable, server-capped)
// so a stalled daemon fails fast instead of stacking goroutines.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cmpqos/internal/jsonenc"
	"cmpqos/internal/qos"
)

const (
	snapName = "snapshot.json"
	walName  = "wal.log"

	// envelopeVersion versions the daemon's snapshot envelope (which
	// wraps the per-node qos snapshots, themselves versioned).
	envelopeVersion = 1
)

// Config configures a daemon instance. The zero value is not usable;
// call (or let New call) withDefaults.
type Config struct {
	// Dir is the durable state directory (snapshot + WAL). Required.
	Dir string
	// Capacity is each node's resource vector (fresh starts only; a
	// recovered snapshot's capacity wins).
	Capacity qos.ResourceVector
	// Nodes is how many LACs the daemon fronts through a GAC.
	Nodes int
	// ClockHz converts wall time to cycles for requests that do not
	// stamp their own arrival.
	ClockHz float64
	// NoSync disables the per-record WAL fsync (benchmarks only: an
	// acknowledged admit may then be lost to a crash).
	NoSync bool
	// SnapshotEvery snapshots and rotates the WAL after this many
	// records.
	SnapshotEvery int
	// WALMaxBytes, when positive, also snapshots and rotates once the
	// log grows past this many bytes — the compaction knob for
	// deployments whose record sizes vary too much for a count bound.
	WALMaxBytes int64
	// MaxInflight bounds the admission queue; requests beyond it shed.
	MaxInflight int
	// DegradeAt is the queue fraction at which the shed ladder starts
	// (scavengers shed, Strict renegotiated down).
	DegradeAt float64
	// MaxSlack is the Elastic slack offered on the renegotiation rung.
	MaxSlack float64
	// MaxWait caps every request's queue-wait budget.
	MaxWait time.Duration
	// AutoDowngrade enables the §3.4 automatic mode downgrade on the
	// nodes (fresh starts only).
	AutoDowngrade bool
}

func (c Config) withDefaults() Config {
	if c.Capacity.IsZero() {
		c.Capacity = qos.ResourceVector{Cores: 4, CacheWays: 16}
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.ClockHz <= 0 {
		c.ClockHz = 2e9
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1024
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.DegradeAt <= 0 || c.DegradeAt > 1 {
		c.DegradeAt = 0.5
	}
	if c.MaxSlack <= 0 {
		c.MaxSlack = 0.05
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 100 * time.Millisecond
	}
	return c
}

// jobEntry is the daemon's per-live-job bookkeeping: which node holds
// it, in which (possibly negotiated-down) mode, under which
// reservation. It is part of the durable state — persisted in the
// snapshot envelope and reconstructed by WAL replay.
type jobEntry struct {
	Node  int      `json:"node"`
	Mode  qos.Mode `json:"mode"`
	ResID int      `json:"res_id"`
}

// Server is one daemon instance. All admission state is guarded by mu.
// A decision is planned, appended to the WAL and only then applied, all
// inside one critical section, so log order always equals application
// order (replay relies on this) and a record the log refused was never
// applied.
type Server struct {
	cfg  Config
	disk qos.FS // every file operation on cfg.Dir

	mu    sync.Mutex
	nodes []*qos.LAC
	gac   *qos.GAC
	jobs  map[int]jobEntry
	wal   *qos.WALWriter
	seq   int64 // last appended record
	since int   // records since last snapshot
	// Periodic snapshots that failed, and the last failure's text: the
	// admission path carries on from the WAL, so healthz is where an
	// operator learns the log has stopped compacting. Beside them, what
	// the snapshots that did land cost: every one stalls admissions for
	// its whole duration.
	snapFailures  int64
	lastSnapErr   string
	snapshots     int64
	lastSnapDur   time.Duration
	lastSnapBytes int64
	// walDegraded is set by any append error, and by a rotation whose
	// final directory sync failed, and cleared by the next snapshot +
	// rotation that lands through that sync; while it is set nothing may
	// be logged, so nothing may be decided (lockForDecision). lastWALErr
	// keeps the error's text for healthz.
	walDegraded bool
	lastWALErr  string
	// enc renders every snapshot; it is kept so its buffer and key
	// scratch are allocated once, not per snapshot.
	enc *jsonenc.Encoder

	// Virtual clock: cycles = clockBase + elapsed·Hz. maxCycle tracks
	// the largest cycle ever stamped into an operation, is persisted,
	// and seeds clockBase on restart so time never runs backwards
	// across a crash. Written under mu; atomic because now() stamps
	// requests before they take the lock.
	clockBase int64
	maxCycle  atomic.Int64
	started   time.Time

	sem      chan struct{}
	draining atomic.Bool
	drained  chan struct{}
	closeOne sync.Once

	// Counters for healthz and the load harness.
	nSubmit, nAccepted, nRejected, nShed, nDegraded, nCancelled atomic.Int64

	// pub is what healthz reports of the state mu guards, as the last
	// section that held mu left it (unlock publishes it). pubMu guards
	// it and is never held across I/O, so healthz answers while a
	// request holds mu through a WAL fsync.
	pubMu sync.Mutex
	pub   healthState
}

// healthState is the part of Health that lives under mu.
type healthState struct {
	seq           int64
	jobs          int
	snapFailures  int64
	lastSnapErr   string
	snapshots     int64
	lastSnapDur   time.Duration
	lastSnapBytes int64
	walDegraded   bool
	lastWALErr    string
	placement     qos.GACStats
}

// unlock publishes what healthz reads of the state and releases mu:
// every section that takes mu ends here.
func (s *Server) unlock() {
	s.publishLocked()
	s.mu.Unlock()
}

// publishLocked copies the healthz fields out from under mu.
func (s *Server) publishLocked() {
	p := healthState{
		seq:           s.seq,
		jobs:          len(s.jobs),
		snapFailures:  s.snapFailures,
		lastSnapErr:   s.lastSnapErr,
		snapshots:     s.snapshots,
		lastSnapDur:   s.lastSnapDur,
		lastSnapBytes: s.lastSnapBytes,
		walDegraded:   s.walDegraded,
		lastWALErr:    s.lastWALErr,
		placement:     s.gac.Stats(),
	}
	s.pubMu.Lock()
	s.pub = p
	s.pubMu.Unlock()
}

// published returns the last published healthz fields.
func (s *Server) published() healthState {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.pub
}

// New opens (creating or recovering) a daemon over the state directory
// in cfg.Dir.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if err := qos.CheckCapacity(cfg.withDefaults().Capacity); err != nil {
		return nil, fmt.Errorf("server: node capacity: %w", err)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return newServer(cfg, qos.OS)
}

// newServer is New over the existing directory cfg.Dir of disk.
func newServer(cfg Config, disk qos.FS) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		disk:    disk,
		jobs:    map[int]jobEntry{},
		started: time.Now(),
		enc:     jsonenc.New(nil),
		sem:     make(chan struct{}, cfg.MaxInflight),
		drained: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.publishLocked() // no request can hold mu yet
	return s, nil
}

// lacOpts builds the (configuration, not state) options for fresh or
// restored nodes.
func (s *Server) lacOpts() []qos.LACOption {
	var opts []qos.LACOption
	if s.cfg.AutoDowngrade {
		opts = append(opts, qos.WithAutoDowngrade())
	}
	return opts
}

// snapEnvelope is the daemon's durable snapshot: the WAL high-water
// mark it covers, the persisted clock, the per-node qos snapshots, and
// the job table. Recovery decodes into it; encodeLocked writes the same
// fields in the same order by hand.
type snapEnvelope struct {
	Version int               `json:"version"`
	WALSeq  int64             `json:"wal_seq"`
	Clock   int64             `json:"clock"`
	Nodes   []json.RawMessage `json:"nodes"`
	Jobs    map[int]jobEntry  `json:"jobs"`
}

// recover rebuilds the pre-crash state: snapshot first, then the WAL
// tail, truncating any torn final record.
func (s *Server) recover() error {
	snapPath := filepath.Join(s.cfg.Dir, snapName)
	walPath := filepath.Join(s.cfg.Dir, walName)

	walSeq := int64(0)
	if data, err := s.disk.ReadFile(snapPath); err == nil {
		var env snapEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("server: decoding %s: %w", snapName, err)
		}
		if env.Version != envelopeVersion {
			return &qos.VersionError{What: "snapshot", Got: env.Version, Want: envelopeVersion}
		}
		if len(env.Nodes) == 0 {
			return fmt.Errorf("server: snapshot has no nodes")
		}
		for i, raw := range env.Nodes {
			lac, err := qos.RestoreLAC(bytes.NewReader(raw), s.lacOpts()...)
			if err != nil {
				return fmt.Errorf("server: restoring node %d: %w", i, err)
			}
			s.nodes = append(s.nodes, lac)
		}
		if env.Jobs != nil {
			s.jobs = env.Jobs
		}
		walSeq = env.WALSeq
		s.clockBase = env.Clock
		s.maxCycle.Store(env.Clock)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	} else {
		for i := 0; i < s.cfg.Nodes; i++ {
			s.nodes = append(s.nodes, qos.NewLAC(s.cfg.Capacity, s.lacOpts()...))
		}
	}
	s.gac = qos.NewGAC(s.nodes...)

	recs, goodSize, err := qos.ReadWALOn(s.disk, walPath)
	switch {
	case errors.Is(err, fs.ErrNotExist) || err == nil && goodSize == 0:
		// No log, or one whose intact prefix is shorter than its header
		// (an empty file, a torn creation): reopening it would append
		// records under no header, so start a fresh log instead.
		s.seq = walSeq
		return s.rotateWALLocked()
	case err != nil:
		return err
	}
	for _, rec := range recs {
		if rec.Seq <= walSeq {
			continue // already folded into the snapshot
		}
		if err := s.applyRecord(rec); err != nil {
			return err
		}
		s.seq = rec.Seq
	}
	if s.seq < walSeq {
		s.seq = walSeq
	}
	// A torn tail is the expected crash shape: cut it so appends resume
	// after the last intact record.
	w, err := qos.OpenWALOn(s.disk, walPath, goodSize, !s.cfg.NoSync)
	if err != nil {
		return err
	}
	s.wal = w
	s.since = len(recs)
	return nil
}

// applyRecord replays one WAL record against the restored state. An
// admission is planned again and committed only if the plan reproduces
// the logged outcome — the daemon's defense against silently diverged
// recovery.
func (s *Server) applyRecord(rec qos.WALRecord) error {
	switch rec.Op {
	case qos.WALAdmit:
		got := rec
		p := s.plan(&got)
		if got.Node != rec.Node || got.FinalMode != rec.FinalMode || got.Dec != rec.Dec {
			return fmt.Errorf("server: wal replay divergence at seq %d: got node %d mode %v dec %+v, logged node %d mode %v dec %+v",
				rec.Seq, got.Node, got.FinalMode, got.Dec, rec.Node, rec.FinalMode, rec.Dec)
		}
		s.commit(&rec, p)
	case qos.WALCancel:
		e, ok := s.jobs[rec.JobID]
		if !ok {
			return fmt.Errorf("server: wal replay divergence at seq %d: cancel of unknown job %d", rec.Seq, rec.JobID)
		}
		s.cancel(&rec, e)
	default:
		return fmt.Errorf("server: wal record %d has unknown op %q", rec.Seq, rec.Op)
	}
	return nil
}

// plan decides an admission record from its inputs — the plain path or
// the renegotiation ladder — and fills in its outcome (Node, FinalMode,
// Dec), changing no node. Live requests and WAL replay both decide here
// and apply through commit, so both take exactly the same code path.
func (s *Server) plan(rec *qos.WALRecord) qos.Placement {
	req := qos.Request{JobID: rec.JobID, Target: rec.RUM, Mode: rec.Mode, Arrival: rec.Arrival}
	var p qos.Placement
	if rec.Negotiate {
		p = s.gac.PlanOrNegotiate(req, rec.MaxSlack)
	} else {
		p = s.gac.Plan(req)
	}
	rec.Node, rec.FinalMode, rec.Dec = p.Node, p.Mode, p.Dec
	return p
}

// commit applies a logged admission: the planned placement on the nodes,
// the job table, the clock.
func (s *Server) commit(rec *qos.WALRecord, p qos.Placement) {
	s.gac.Commit(p)
	if rec.Dec.Accepted {
		s.jobs[rec.JobID] = jobEntry{Node: rec.Node, Mode: rec.FinalMode, ResID: rec.Dec.ReservationID}
	}
	s.noteCycle(rec.Arrival)
}

// cancel applies a logged cancel of the admitted job e: its node
// releases the job, the job table drops it, the clock advances. Live
// requests and WAL replay both apply here.
func (s *Server) cancel(rec *qos.WALRecord, e jobEntry) {
	s.nodes[e.Node].Complete(rec.JobID, e.Mode, rec.Now)
	delete(s.jobs, rec.JobID)
	s.noteCycle(rec.Now)
}

// noteCycle advances the persisted clock high-water mark.
func (s *Server) noteCycle(c int64) {
	if c > s.maxCycle.Load() {
		s.maxCycle.Store(c)
	}
}

// now returns the daemon's current virtual time in cycles.
func (s *Server) now() int64 {
	c := s.clockBase + int64(time.Since(s.started).Seconds()*s.cfg.ClockHz)
	if m := s.maxCycle.Load(); c < m {
		c = m
	}
	return c
}

// errOutcomeUnknown marks an append error whose record may yet be
// replayed: the re-anchor that would have erased it did not land.
var errOutcomeUnknown = errors.New("outcome unknown")

// appendLocked logs one record (mu held) before its change is applied.
// On failure the caller applies nothing and answers 500, and memory is
// still the state before the request. The file is not: a short write
// leaves a torn frame, and a write whose fsync failed may have landed
// the whole frame, which a crash would replay. So any error poisons the
// log (walDegraded) until a snapshot of memory and a fresh log re-anchor
// disk to it, tried here at once and again by every request
// lockForDecision refuses. The failure is definite only if this first
// re-anchor landed; otherwise the error wraps errOutcomeUnknown.
func (s *Server) appendLocked(rec *qos.WALRecord) error {
	rec.Seq = s.seq + 1
	if err := s.wal.Append(*rec); err != nil {
		s.walDegraded, s.lastWALErr = true, err.Error()
		if rerr := s.snapshotLocked(); rerr != nil {
			return fmt.Errorf("%w (%w: the log was not re-anchored: %v)", err, errOutcomeUnknown, rerr)
		}
		return err
	}
	s.seq = rec.Seq
	s.since++
	return nil
}

// maybeSnapshotLocked rotates once SnapshotEvery records have
// accumulated, or — with WALMaxBytes set — once the log outgrows its
// byte bound (the since > 0 guard keeps an oversized header from
// rotating an empty log forever). Callers invoke it only AFTER applying
// the just-logged record's state change — a snapshot taken between
// append and apply would claim to cover a record whose effect it is
// missing, and replay (which skips by sequence number) would silently
// drop it. Snapshot failures are not fatal to the admission path: the
// WAL still has everything, and since keeps growing so the next record
// retries; they are counted for healthz.
func (s *Server) maybeSnapshotLocked() {
	if s.since < s.cfg.SnapshotEvery &&
		!(s.cfg.WALMaxBytes > 0 && s.since > 0 && s.wal.Size() >= s.cfg.WALMaxBytes) {
		return
	}
	s.snapshotLocked()
}

// snapshotLocked snapshots and rotates on the daemon's own initiative
// (mu held), counting a failure for healthz.
func (s *Server) snapshotLocked() error {
	err := s.persistSnapshotLocked(nil)
	if err != nil {
		s.snapFailures++
		s.lastSnapErr = err.Error()
	}
	return err
}

// encodeLocked renders the full durable state deterministically into w
// (mu held), streamed through the encoder's fixed buffer: exactly the
// bytes json.MarshalIndent renders a snapEnvelope as, which is what every
// snapshot on disk holds and recovery decodes (snapshot_test.go holds it
// to them). Byte-for-byte equality of two encodings means identical
// admission state; the crash-recovery tests compare exactly this.
func (s *Server) encodeLocked(w io.Writer) error {
	e := s.enc
	e.Reset(w)
	e.Object()
	e.IntField("version", envelopeVersion)
	e.IntField("wal_seq", s.seq)
	e.IntField("clock", s.maxCycle.Load())
	e.Key("nodes")
	e.Array()
	for _, lac := range s.nodes {
		e.Elem()
		lac.EncodeSnapshot(e)
	}
	e.EndArray()
	e.Key("jobs")
	e.Object()
	for _, id := range jsonenc.IntKeys(e, s.jobs) {
		j := s.jobs[id]
		e.IntKey(id)
		e.Object()
		e.IntField("node", int64(j.Node))
		e.Key("mode")
		e.Object()
		e.IntField("Kind", int64(j.Mode.Kind))
		e.Key("Slack")
		e.Float(j.Mode.Slack)
		e.EndObject()
		e.IntField("res_id", int64(j.ResID))
		e.EndObject()
	}
	e.EndObject()
	e.EndObject()
	return e.Flush()
}

// encodeStateLocked materialises one image of the state (mu held) for a
// reader that must be answered after the lock is dropped.
func (s *Server) encodeStateLocked() ([]byte, error) {
	var img bytes.Buffer
	if err := s.encodeLocked(&img); err != nil {
		return nil, err
	}
	return img.Bytes(), nil
}

// persistSnapshotLocked streams the state into snapshot.json atomically
// (tmp + fsync + rename + dir sync) and then rotates the WAL so its
// records begin after the snapshot's high-water mark; tee, when non-nil,
// receives the same bytes. Every crash window is safe (DESIGN §12.2):
// until the snapshot rename lands, the old snapshot and the full WAL
// recover; from then on the new snapshot skips, by sequence number,
// whatever the log still holds.
func (s *Server) persistSnapshotLocked(tee io.Writer) error {
	start := time.Now()
	snapPath := filepath.Join(s.cfg.Dir, snapName)
	snapTmp := snapPath + ".tmp"
	err := s.writeSnapshotLocked(snapTmp, tee)
	if err == nil {
		err = s.disk.Rename(snapTmp, snapPath)
	}
	if err != nil {
		s.disk.Remove(snapTmp)
		return err
	}
	if err := s.disk.SyncDir(s.cfg.Dir); err != nil {
		return err
	}
	if err := s.rotateWALLocked(); err != nil {
		return err
	}
	s.since = 0
	s.snapshots++
	s.lastSnapDur = time.Since(start)
	s.lastSnapBytes = s.enc.Written()
	return nil
}

// rotateWALLocked puts a fresh log with a durable header under wal.log
// and makes it the live one (mu held; a fresh state directory gets its
// first log here too). The live writer is replaced only once its
// successor is renamed into place, and a failure before that leaves
// s.wal open on the file wal.log durably names, so admissions carry on.
// After the rename, a crash may keep either name until the directory
// sync lands, and would lose what the new log took: a failed sync
// poisons the log, and one that lands clears the poison — disk is
// memory again, on a log with no failed append in it.
func (s *Server) rotateWALLocked() error {
	walPath := filepath.Join(s.cfg.Dir, walName)
	walTmp := walPath + ".tmp"
	nw, err := qos.CreateWALOn(s.disk, walTmp, !s.cfg.NoSync)
	if err == nil {
		if err = s.disk.Rename(walTmp, walPath); err != nil {
			nw.Close()
		}
	}
	if err != nil {
		s.disk.Remove(walTmp)
		return err
	}
	old := s.wal
	s.wal = nw
	err = s.disk.SyncDir(s.cfg.Dir)
	// The old log, if any, is unlinked and every record in it is covered
	// by the durable snapshot; nothing depends on how it closes.
	if old != nil {
		_ = old.Close()
	}
	if s.walDegraded = err != nil; err != nil {
		s.lastWALErr = err.Error()
	}
	return err
}

// writeSnapshotLocked streams the state into a fresh file at path (and
// into tee) and makes the file durable.
func (s *Server) writeSnapshotLocked(path string, tee io.Writer) error {
	f, err := s.disk.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if tee != nil {
		w = io.MultiWriter(f, tee)
	}
	if err := s.encodeLocked(w); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Drained is closed once a drain has completed: state flushed, safe to
// stop serving.
func (s *Server) Drained() <-chan struct{} { return s.drained }

// beginDrain stops admissions, waits for in-flight requests to clear,
// persists a final snapshot, and closes Drained. Idempotent; every
// caller observes the same completed drain.
func (s *Server) beginDrain() error {
	var ferr error
	s.closeOne.Do(func() {
		s.draining.Store(true)
		// In-flight admissions hold semaphore slots; draining refuses
		// new ones, so acquiring every slot is a barrier.
		for i := 0; i < cap(s.sem); i++ {
			s.sem <- struct{}{}
		}
		defer func() {
			for i := 0; i < cap(s.sem); i++ {
				<-s.sem
			}
		}()
		s.mu.Lock()
		defer s.unlock()
		if err := s.persistSnapshotLocked(nil); err != nil {
			ferr = err
		}
		if err := s.wal.Close(); err != nil && ferr == nil {
			ferr = err
		}
		close(s.drained)
	})
	return ferr
}

// Close drains and flushes the daemon. Safe to call more than once.
func (s *Server) Close() error { return s.beginDrain() }

// Package server is the admission daemon behind cmd/qosd: the paper's
// §5 user-level admission controller run as a long-lived service making
// live yes/no QoS promises over HTTP/JSON, with robustness as the
// design headline.
//
// Durability: every committed admission decision and cancellation is
// appended to a write-ahead log (internal/qos WAL) and fsynced before
// the client sees the answer, and the full controller state is
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
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

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

// Server is one daemon instance. All admission state is guarded by mu;
// WAL append happens inside the same critical section as the state
// mutation so log order always equals application order (replay relies
// on this).
type Server struct {
	cfg Config

	mu    sync.Mutex
	nodes []*qos.LAC
	gac   *qos.GAC
	jobs  map[int]jobEntry
	wal   *qos.WALWriter
	seq   int64 // last appended record
	since int   // records since last snapshot
	// Periodic snapshots that failed, and the last failure's text: the
	// admission path carries on from the WAL, so healthz is where an
	// operator learns the log has stopped compacting.
	snapFailures int64
	lastSnapErr  string

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

	// holdAdmission, when set (tests only), runs while an admission
	// slot is held, letting tests create real queue pressure.
	holdAdmission func()
}

// New opens (creating or recovering) a daemon over the state directory
// in cfg.Dir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		jobs:    map[int]jobEntry{},
		started: time.Now(),
		sem:     make(chan struct{}, cfg.MaxInflight),
		drained: make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
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
// the job table.
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
	if data, err := os.ReadFile(snapPath); err == nil {
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
	} else if !os.IsNotExist(err) {
		return err
	} else {
		for i := 0; i < s.cfg.Nodes; i++ {
			s.nodes = append(s.nodes, qos.NewLAC(s.cfg.Capacity, s.lacOpts()...))
		}
	}
	s.gac = qos.NewGAC(s.nodes...)

	recs, goodSize, err := qos.ReadWAL(walPath)
	switch {
	case os.IsNotExist(err):
		w, err := qos.CreateWAL(walPath, !s.cfg.NoSync)
		if err != nil {
			return err
		}
		s.wal = w
		s.seq = walSeq
		return nil
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
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > goodSize {
		if err := os.Truncate(walPath, goodSize); err != nil {
			return err
		}
	}
	w, err := qos.AppendWAL(walPath, !s.cfg.NoSync)
	if err != nil {
		return err
	}
	s.wal = w
	s.since = len(recs)
	return nil
}

// applyRecord replays one WAL record against the restored state and
// verifies the recorded outcome reproduces — the daemon's defense
// against silently diverged recovery.
func (s *Server) applyRecord(rec qos.WALRecord) error {
	switch rec.Op {
	case qos.WALAdmit:
		node, mode, dec := s.decide(rec.JobID, rec.RUM, rec.Mode, rec.Arrival, rec.Negotiate, rec.MaxSlack)
		if node != rec.Node || mode != rec.FinalMode || dec != rec.Dec {
			return fmt.Errorf("server: wal replay divergence at seq %d: got node %d mode %v dec %+v, logged node %d mode %v dec %+v",
				rec.Seq, node, mode, dec, rec.Node, rec.FinalMode, rec.Dec)
		}
		if dec.Accepted {
			s.jobs[rec.JobID] = jobEntry{Node: node, Mode: mode, ResID: dec.ReservationID}
		}
		s.noteCycle(rec.Arrival)
	case qos.WALCancel:
		e, ok := s.jobs[rec.JobID]
		if !ok {
			return fmt.Errorf("server: wal replay divergence at seq %d: cancel of unknown job %d", rec.Seq, rec.JobID)
		}
		s.nodes[e.Node].Complete(rec.JobID, e.Mode, rec.Now)
		delete(s.jobs, rec.JobID)
		s.noteCycle(rec.Now)
	default:
		return fmt.Errorf("server: wal record %d has unknown op %q", rec.Seq, rec.Op)
	}
	return nil
}

// decide runs one submission through the GAC — the plain path or the
// renegotiation ladder — and returns the placement. It is the single
// choke point shared by live requests and WAL replay, so both take
// exactly the same code path.
func (s *Server) decide(jobID int, rum qos.RUM, mode qos.Mode, arrival int64, negotiate bool, maxSlack float64) (node int, finalMode qos.Mode, dec qos.Decision) {
	req := qos.Request{JobID: jobID, Target: rum, Mode: mode, Arrival: arrival}
	if negotiate {
		return s.gac.SubmitOrNegotiate(req, maxSlack)
	}
	node, dec = s.gac.Submit(req)
	return node, mode, dec
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

// appendLocked logs one record (mu held). On append failure the caller
// must roll its state change back before answering the client: an
// unlogged mutation would not survive recovery.
func (s *Server) appendLocked(rec *qos.WALRecord) error {
	rec.Seq = s.seq + 1
	if err := s.wal.Append(*rec); err != nil {
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
	if err := s.persistSnapshotLocked(); err != nil {
		s.snapFailures++
		s.lastSnapErr = err.Error()
	}
}

// encodeStateLocked renders the full durable state deterministically
// (mu held). Byte-for-byte equality of two encodings means identical
// admission state; the crash-recovery tests compare exactly this.
func (s *Server) encodeStateLocked() ([]byte, error) {
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

// persistSnapshotLocked writes the state atomically (tmp + fsync +
// rename) and starts a fresh WAL whose records begin after the
// snapshot's high-water mark. Crash windows are all safe: before the
// rename the old snapshot + full WAL recover; between the rename and
// the WAL rotation the new snapshot simply skips already-covered
// records by sequence number.
func (s *Server) persistSnapshotLocked() error {
	data, err := s.encodeStateLocked()
	if err != nil {
		return err
	}
	snapPath := filepath.Join(s.cfg.Dir, snapName)
	tmp := snapPath + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		return err
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		return err
	}

	// Rotate the WAL: build the fresh header file first, close the old
	// writer, then atomically swap.
	walPath := filepath.Join(s.cfg.Dir, walName)
	nw, err := qos.CreateWAL(walPath+".tmp", !s.cfg.NoSync)
	if err != nil {
		return err
	}
	if err := nw.Close(); err != nil {
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	if err := os.Rename(walPath+".tmp", walPath); err != nil {
		return err
	}
	if err := syncDir(s.cfg.Dir); err != nil {
		return err
	}
	w, err := qos.AppendWAL(walPath, !s.cfg.NoSync)
	if err != nil {
		return err
	}
	s.wal = w
	s.since = 0
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Drained is closed once a drain has completed: state flushed, safe to
// stop serving.
func (s *Server) Drained() <-chan struct{} { return s.drained }

// Draining reports whether the daemon has stopped accepting new work.
func (s *Server) Draining() bool { return s.draining.Load() }

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
		defer s.mu.Unlock()
		if err := s.persistSnapshotLocked(); err != nil {
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

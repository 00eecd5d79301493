package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"cmpqos/internal/qos"
)

// The HTTP/JSON surface. All request bodies are small; handlers cap
// them at 1 MB and answer JSON throughout. Status codes: 200 carries an
// admission answer (accepted or rejected — a rejection is a valid
// answer, not a failure), 503 means the daemon refused to answer
// (overload shed, draining or drained, or the WAL poisoned by an append
// error; retryable), 500 that the answer could not be logged and so was
// never applied — unless its body says "outcome":"unknown", when the
// record may still be on disk and a restart may apply it — 409 a
// duplicate job id, 404 an unknown job, 413 a body
// over the cap, 400 a malformed request — one that is not exactly one
// JSON object of the request's declared fields (codec.go).

const maxBody = 1 << 20

// SubmitRequest asks for admission. Times are in cycles at the
// daemon's clock. Exactly one of Deadline (absolute) or DeadlineIn
// (relative to arrival, convenient for clients that do not know the
// daemon's clock) may be set. Arrival 0 lets the daemon stamp its own
// clock. WaitMS bounds how long the request may queue for an admission
// slot before being shed (capped by the server's MaxWait).
type SubmitRequest struct {
	JobID      int     `json:"job_id"`
	Mode       string  `json:"mode"` // strict | elastic | opportunistic
	Slack      float64 `json:"slack,omitempty"`
	Cores      int     `json:"cores"`
	Ways       int     `json:"ways"`
	MemMB      int     `json:"mem_mb,omitempty"`
	BWMBps     int     `json:"bw_mbps,omitempty"`
	TW         int64   `json:"tw,omitempty"`
	Deadline   int64   `json:"deadline,omitempty"`
	DeadlineIn int64   `json:"deadline_in,omitempty"`
	Arrival    int64   `json:"arrival,omitempty"`
	WaitMS     int64   `json:"wait_ms,omitempty"`
	// Negotiate opts in to the mode ladder: if the requested mode fits
	// nowhere, the daemon retries with progressively weaker modes
	// before answering no.
	Negotiate bool `json:"negotiate,omitempty"`
}

// SubmitResponse is the admission answer.
type SubmitResponse struct {
	Accepted       bool   `json:"accepted"`
	JobID          int    `json:"job_id"`
	Node           int    `json:"node"`
	Mode           string `json:"mode"`
	Start          int64  `json:"start"`
	ReservationID  int    `json:"reservation_id,omitempty"`
	AutoDowngraded bool   `json:"auto_downgraded,omitempty"`
	SwitchBack     int64  `json:"switch_back,omitempty"`
	// Degraded reports the daemon renegotiated the mode down under
	// load-shed pressure (the accepted Mode differs from the asked).
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Seq      int64  `json:"seq,omitempty"`
}

// CancelRequest releases a live job's admission (completion or
// cancellation — the timeline treats both as early reclaim).
type CancelRequest struct {
	JobID int   `json:"job_id"`
	Now   int64 `json:"now,omitempty"`
}

// CancelResponse acknowledges a cancel.
type CancelResponse struct {
	Cancelled bool  `json:"cancelled"`
	JobID     int   `json:"job_id"`
	Node      int   `json:"node"`
	Seq       int64 `json:"seq,omitempty"`
}

// OfferJSON is one §3.1 counter-proposal, with the node that made it.
type OfferJSON struct {
	Node     int    `json:"node"`
	Kind     string `json:"kind"`
	Cores    int    `json:"cores"`
	Ways     int    `json:"ways"`
	Mode     string `json:"mode"`
	Start    int64  `json:"start"`
	Deadline int64  `json:"deadline"`
	// offer is the offer the fields above render, kept to order the list
	// by; encoding/json skips it.
	offer qos.Offer
}

// ShedResponse is the 503 body: the daemon refused to decide.
type ShedResponse struct {
	Shed   bool   `json:"shed"`
	Reason string `json:"reason"`
}

// Health is the healthz body.
type Health struct {
	Status     string `json:"status"`
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	WALSeq     int64  `json:"wal_seq"`
	Jobs       int    `json:"jobs"`
	Nodes      int    `json:"nodes"`
	Submits    int64  `json:"submits"`
	Accepted   int64  `json:"accepted"`
	Rejected   int64  `json:"rejected"`
	Shed       int64  `json:"shed"`
	Degraded   int64  `json:"degraded"`
	Cancelled  int64  `json:"cancelled"`
	// SnapshotFailures counts periodic snapshots that could not be
	// written (admissions continue from the WAL, which then stops
	// compacting); LastSnapshotError is the most recent failure.
	SnapshotFailures  int64  `json:"snapshot_failures"`
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
	// Snapshots counts the snapshots that were written (periodic, on
	// request, on drain); LastSnapshotMS is how long the most recent one
	// held the admission lock — encode, fsyncs and WAL rotation — and
	// LastSnapshotBytes the size of the file it wrote.
	Snapshots         int64   `json:"snapshots"`
	LastSnapshotMS    float64 `json:"last_snapshot_ms"`
	LastSnapshotBytes int64   `json:"last_snapshot_bytes"`
	// WALDegraded is set from a WAL append error until the snapshot +
	// rotation that re-anchors disk to memory lands; submit, negotiate
	// and cancel answer 503 meanwhile. LastWALError is the most recent
	// append error, kept after the log has recovered.
	WALDegraded  bool   `json:"wal_degraded"`
	LastWALError string `json:"last_wal_error,omitempty"`
	// Placement is the GAC's work since this process started: how many
	// nodes each sweep billed, how many it really asked, and why the
	// rest were skipped.
	Placement qos.GACStats `json:"placement"`
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("POST /v1/cancel", s.handleCancel)
	mux.HandleFunc("POST /v1/negotiate", s.handleNegotiate)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if errors.Is(err, errOutcomeUnknown) {
		body["outcome"] = "unknown"
	}
	writeJSON(w, status, body)
}

func shed(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ShedResponse{Shed: true, Reason: reason})
}

// lockForDecision takes mu for a request that is about to decide and
// log, or refuses it: answered 503, mu released, false returned. A
// drained daemon has written its final snapshot and closed its log, so it
// decides nothing more. After an append error the log may not take a
// record until a snapshot + rotation lands (appendLocked), so every
// request that finds it poisoned retries one — the daemon recovers with
// its disk — and is refused while that fails. healthz carries the error
// itself.
func (s *Server) lockForDecision(w http.ResponseWriter) bool {
	s.mu.Lock()
	select {
	case <-s.drained:
		s.unlock()
		shed(w, "drained")
		return false
	default:
	}
	if s.walDegraded {
		s.snapshotLocked()
	}
	if !s.walDegraded {
		return true
	}
	s.unlock()
	shed(w, "write-ahead log degraded: refusing to decide what cannot be logged")
	return false
}

func parseMode(name string, slack float64) (qos.Mode, error) {
	switch name {
	case "", "strict":
		return qos.Strict(), nil
	case "elastic":
		if slack <= 0 || slack > 1 {
			return qos.Mode{}, fmt.Errorf("elastic mode needs slack in (0,1], got %g", slack)
		}
		return qos.Elastic(slack), nil
	case "opportunistic":
		return qos.Opportunistic(), nil
	}
	return qos.Mode{}, fmt.Errorf("unknown mode %q", name)
}

// rumFromRequest resolves the request into the qos target, stamping
// arrival and converting a relative deadline.
func (s *Server) rumFromRequest(req *SubmitRequest) (qos.RUM, int64, error) {
	arrival := req.Arrival
	if arrival == 0 {
		arrival = s.now()
	}
	deadline := req.Deadline
	if deadline == 0 && req.DeadlineIn > 0 {
		deadline = arrival + req.DeadlineIn
	}
	if req.Deadline != 0 && req.DeadlineIn != 0 {
		return qos.RUM{}, 0, fmt.Errorf("set deadline or deadline_in, not both")
	}
	rum := qos.RUM{
		Resources: qos.ResourceVector{
			Cores:         req.Cores,
			CacheWays:     req.Ways,
			MemoryMB:      req.MemMB,
			BandwidthMBps: req.BWMBps,
		},
		MaxWallClock: req.TW,
		Deadline:     deadline,
	}
	return rum, arrival, nil
}

// acquire takes an admission slot within the request's wait budget.
func (s *Server) acquire(r *http.Request, waitMS int64) bool {
	wait := s.cfg.MaxWait
	if waitMS > 0 {
		if d := time.Duration(waitMS) * time.Millisecond; d < wait {
			wait = d
		}
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		shed(w, "draining")
		return
	}
	var req SubmitRequest
	if !decodeSubmit(w, r, &req) {
		return
	}
	mode, err := parseMode(req.Mode, req.Slack)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.nSubmit.Add(1)
	if !s.acquire(r, req.WaitMS) {
		s.nShed.Add(1)
		shed(w, "admission queue full")
		return
	}
	defer func() { <-s.sem }()

	// The overload degradation ladder (the daemon-side analog of the
	// fault pipeline's shed → renegotiate rungs): past the degrade
	// watermark, scavenger submissions are shed outright and reserving
	// submissions are forced through the negotiation ladder so they can
	// land in a weaker mode instead of bouncing.
	negotiate := req.Negotiate
	degradeForced := false
	if depth := len(s.sem); float64(depth) >= s.cfg.DegradeAt*float64(cap(s.sem)) {
		if mode.Kind == qos.KindOpportunistic {
			s.nShed.Add(1)
			shed(w, "load shed: opportunistic work refused under pressure")
			return
		}
		if !negotiate {
			negotiate = true
			degradeForced = true
		}
	}

	rum, arrival, err := s.rumFromRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if !s.lockForDecision(w) {
		return
	}
	if _, live := s.jobs[req.JobID]; live {
		s.unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("job %d is already admitted", req.JobID))
		return
	}
	// Decide, log, then apply: nothing changes until the record is in
	// the log, so a refused append leaves nothing to undo.
	rec := qos.WALRecord{
		Op:        qos.WALAdmit,
		JobID:     req.JobID,
		Mode:      mode,
		RUM:       rum,
		Arrival:   arrival,
		Negotiate: negotiate,
		MaxSlack:  s.cfg.MaxSlack,
	}
	p := s.plan(&rec)
	if err := s.appendLocked(&rec); err != nil {
		s.unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.commit(&rec, p)
	s.maybeSnapshotLocked()
	s.unlock()

	dec := rec.Dec
	if dec.Accepted {
		s.nAccepted.Add(1)
	} else {
		s.nRejected.Add(1)
	}
	degraded := dec.Accepted && degradeForced && rec.FinalMode != mode
	if degraded {
		s.nDegraded.Add(1)
	}
	bp := getBuf()
	*bp = SubmitResponse{
		Accepted:       dec.Accepted,
		JobID:          req.JobID,
		Node:           rec.Node,
		Mode:           modeName(rec.FinalMode),
		Start:          dec.Start,
		ReservationID:  dec.ReservationID,
		AutoDowngraded: dec.AutoDowngraded,
		SwitchBack:     dec.SwitchBack,
		Degraded:       degraded,
		Reason:         dec.Reason,
		Seq:            rec.Seq,
	}.appendJSON((*bp)[:0])
	writeOK(w, bp)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req CancelRequest
	if !decodeCancel(w, r, &req) {
		return
	}
	// Cancels release resources, so they are admitted while a drain is
	// under way (not once it is done) and do not consume an admission
	// slot.
	now := req.Now
	if now == 0 {
		now = s.now()
	}
	if !s.lockForDecision(w) {
		return
	}
	e, ok := s.jobs[req.JobID]
	if !ok {
		s.unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("job %d is not admitted", req.JobID))
		return
	}
	rec := qos.WALRecord{Op: qos.WALCancel, JobID: req.JobID, Now: now}
	if err := s.appendLocked(&rec); err != nil {
		s.unlock()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.cancel(&rec, e)
	s.maybeSnapshotLocked()
	s.unlock()
	s.nCancelled.Add(1)
	bp := getBuf()
	*bp = CancelResponse{Cancelled: true, JobID: req.JobID, Node: e.Node, Seq: rec.Seq}.appendJSON((*bp)[:0])
	writeOK(w, bp)
}

func (s *Server) handleNegotiate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		shed(w, "draining")
		return
	}
	var req SubmitRequest
	if !decodeSubmit(w, r, &req) {
		return
	}
	mode, err := parseMode(req.Mode, req.Slack)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rum, arrival, err := s.rumFromRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	qreq := qos.Request{JobID: req.JobID, Target: rum, Mode: mode, Arrival: arrival}
	var offers []OfferJSON
	if !s.lockForDecision(w) {
		return // an offer is worth what a submit can then make of it
	}
	for i, lac := range s.nodes {
		for _, off := range lac.Negotiate(qreq) {
			offers = append(offers, OfferJSON{
				Node:     i,
				Kind:     off.Kind.String(),
				Cores:    off.Resources.Cores,
				Ways:     off.Resources.CacheWays,
				Mode:     modeName(off.Mode),
				Start:    off.Start,
				Deadline: off.Deadline,
				offer:    off,
			})
		}
	}
	s.unlock()
	// Best offer first, in the qos package's preference order; a tie
	// keeps node order.
	slices.SortStableFunc(offers, func(a, b OfferJSON) int { return qos.CompareOffers(a.offer, b.offer) })
	writeJSON(w, http.StatusOK, map[string]any{"offers": offers})
}

// AllocNode is one node's derived allocation state in the ?alloc=1
// snapshot view: capacity, live reservations, the usage the timeline
// carries right now, and the admission headroom a feedback controller
// may have set.
type AllocNode struct {
	Node         int `json:"node"`
	Cores        int `json:"cores"`
	Ways         int `json:"ways"`
	Reservations int `json:"reservations"`
	UsedCores    int `json:"used_cores"`
	UsedWays     int `json:"used_ways"`
	Headroom     int `json:"headroom"`
}

// AllocView is the ?alloc=1 wrapper: the durable envelope verbatim
// under "state" plus the derived controller/allocation state. The
// derived section is a pure function of the durable state, so it
// reproduces identically across a crash.
type AllocView struct {
	State json.RawMessage `json:"state"`
	Now   int64           `json:"now"`
	Jobs  int             `json:"jobs"`
	Nodes []AllocNode     `json:"nodes"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	persist := r.URL.Query().Get("persist") != ""
	alloc := r.URL.Query().Get("alloc") != ""
	now := s.now()
	// One transient image is rendered under the lock — teed off the
	// rendering that goes to disk when persisting — and written to the
	// client only after the lock is dropped.
	var data []byte
	var err error
	s.mu.Lock()
	if persist {
		var img bytes.Buffer
		err = s.persistSnapshotLocked(&img)
		data = img.Bytes()
	} else {
		data, err = s.encodeStateLocked()
	}
	var view AllocView
	if err == nil && alloc {
		view = AllocView{State: data, Now: now, Jobs: len(s.jobs)}
		for i, lac := range s.nodes {
			tl := lac.Timeline()
			cap, use := tl.Capacity(), tl.UsageAt(now)
			view.Nodes = append(view.Nodes, AllocNode{
				Node:         i,
				Cores:        cap.Cores,
				Ways:         cap.CacheWays,
				Reservations: tl.Len(),
				UsedCores:    use.Cores,
				UsedWays:     use.CacheWays,
				Headroom:     lac.Headroom(),
			})
		}
	}
	s.unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The bare body stays byte-identical to the persisted snapshot (the
	// crash-identity contract compares exactly these bytes); the alloc
	// view wraps those bytes without re-encoding them.
	if alloc {
		writeJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p := s.published()
	h := Health{
		Status:     "ok",
		Draining:   s.draining.Load(),
		QueueDepth: len(s.sem),
		QueueCap:   cap(s.sem),
		WALSeq:     p.seq,
		Jobs:       p.jobs,
		Nodes:      len(s.nodes),
		Submits:    s.nSubmit.Load(),
		Accepted:   s.nAccepted.Load(),
		Rejected:   s.nRejected.Load(),
		Shed:       s.nShed.Load(),
		Degraded:   s.nDegraded.Load(),
		Cancelled:  s.nCancelled.Load(),

		SnapshotFailures:  p.snapFailures,
		LastSnapshotError: p.lastSnapErr,
		Snapshots:         p.snapshots,
		LastSnapshotMS:    float64(p.lastSnapDur.Microseconds()) / 1e3,
		LastSnapshotBytes: p.lastSnapBytes,
		WALDegraded:       p.walDegraded,
		LastWALError:      p.lastWALErr,
		Placement:         p.placement,
	}
	status := http.StatusOK
	switch {
	case h.Draining:
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case h.WALDegraded:
		h.Status = "wal-degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.beginDrain(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"drained": true, "wal_seq": s.published().seq})
}

// modeNames are the wire names of the modes parseMode accepts, by kind:
// every mode the daemon answers with came through it.
var modeNames = [...]string{qos.KindStrict: "strict", qos.KindElastic: "elastic", qos.KindOpportunistic: "opportunistic"}

func modeName(m qos.Mode) string { return modeNames[m.Kind] }

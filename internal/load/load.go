// Package load is the client-side benchmark harness behind cmd/qosload:
// a speedtest-style concurrent driver for the qosd admission daemon. It
// fires a fixed number of submissions from a worker pool, retries shed
// (503) and transport-failed requests with exponential backoff and
// jitter, and reports admission throughput and tail latency (p50 / p99
// / p999) per case. The Grants list in the report is the ground truth
// the chaos mode checks against a recovered daemon: every acked,
// non-cancelled grant must survive a kill -9.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmpqos/internal/splitmix"
)

// Case is one request shape in the mix. Cases are assigned round-robin
// over the submission index, so a two-case mix alternates.
type Case struct {
	Name       string
	Mode       string // strict | elastic | opportunistic
	Slack      float64
	Cores      int
	Ways       int
	TW         int64 // cycles reserved per admission (reserving modes)
	DeadlineIn int64 // cycles from arrival to deadline
	Negotiate  bool  // opt in to the daemon's mode ladder
}

// Config tunes the run.
type Config struct {
	BaseURL     string
	Requests    int // total submissions across all workers
	Concurrency int
	Timeout     time.Duration // per-attempt HTTP timeout
	Retries     int           // extra attempts after a shed or transport failure
	Seed        int64         // jitter seed — same seed, same backoff schedule
	Cancel      bool          // cancel each admission immediately (steady-state churn)
	WaitMS      int64         // per-request queue-wait budget sent to the daemon
}

const (
	// backoffBase is the delay before the first retry; each further
	// retry doubles it, up to backoffCap.
	backoffBase = 5 * time.Millisecond
	backoffCap  = 500 * time.Millisecond
	// jobIDBase is the job id of submission 0; submission i is
	// jobIDBase+i.
	jobIDBase = 1
)

func (c Config) withDefaults() Config {
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Grant is one acknowledged admission — the durability unit the chaos
// harness asserts on.
type Grant struct {
	JobID int    `json:"job_id"`
	Node  int    `json:"node"`
	ResID int    `json:"res_id"`
	Mode  string `json:"mode"`
	Seq   int64  `json:"seq"`
	// Cancelled: the follow-up cancel was acknowledged; the job must be
	// gone after recovery.
	Cancelled bool `json:"cancelled"`
	// CancelUnknown: a cancel was attempted but the answer was lost
	// (transport error — e.g. the daemon was SIGKILLed mid-request). The
	// cancel may or may not have been logged before the crash, so the
	// job may legitimately be live or gone; an audit can only check
	// consistency if it is still live.
	CancelUnknown bool `json:"cancel_unknown,omitempty"`
}

// CaseReport aggregates one case's outcomes. Latency percentiles are
// over requests that got an admission answer (accepted or rejected —
// the daemon decided); sheds and transport failures are counted, not
// timed.
type CaseReport struct {
	Name        string        `json:"name"`
	Sent        int           `json:"sent"`
	Admitted    int           `json:"admitted"`
	Degraded    int           `json:"degraded"`
	Rejected    int           `json:"rejected"`
	Shed        int           `json:"shed"` // attempts answered 503
	Unavailable int           `json:"unavailable"`
	Conflicts   int           `json:"conflicts"`
	Retries     int           `json:"retries"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	P999        time.Duration `json:"p999_ns"`
	Max         time.Duration `json:"max_ns"`
}

// Report is the run's outcome.
type Report struct {
	Duration    time.Duration `json:"duration_ns"`
	Admitted    int           `json:"admitted"`
	Rejected    int           `json:"rejected"`
	Shed        int           `json:"shed"`
	Unavailable int           `json:"unavailable"`
	Conflicts   int           `json:"conflicts"`
	AdmitPerSec float64       `json:"admit_per_sec"`
	Cases       []CaseReport  `json:"cases"`
	Grants      []Grant       `json:"-"`
}

// backoff computes the delay before retry `try` (0-based): exponential
// doubling capped at backoffCap, with half-magnitude jitter so
// concurrent clients do not retry in lockstep.
func backoff(try int, r *splitmix.Rand) time.Duration {
	d := backoffBase << uint(try)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	return d/2 + time.Duration(r.Float64()*float64(d/2))
}

// submitWire mirrors the daemon's SubmitRequest (kept local so the
// harness exercises the daemon strictly over the wire).
type submitWire struct {
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

type submitAnswer struct {
	Accepted      bool   `json:"accepted"`
	Node          int    `json:"node"`
	Mode          string `json:"mode"`
	ReservationID int    `json:"reservation_id"`
	Degraded      bool   `json:"degraded"`
	Seq           int64  `json:"seq"`
}

// outcome classifies one submission's final state after retries.
type outcome struct {
	caseIdx  int
	answer   *submitAnswer // nil if never answered
	grant    *Grant
	latency  time.Duration
	shed     int // 503 attempts seen
	unavail  int // transport-failed attempts seen
	retries  int
	conflict bool
}

// Run drives the configured load and reports. It returns an error only
// for harness-level problems (bad config, context cancelled before any
// work); a daemon that sheds or refuses everything still yields a
// report — the caller decides what that means (qosload maps "nothing
// admitted, everything shed/unreachable" to ExitUnavailable).
func Run(ctx context.Context, cases []Case, cfg Config) (*Report, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("load: no cases")
	}
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: Config.BaseURL is required")
	}
	client := &http.Client{Timeout: cfg.Timeout}

	var next atomic.Int64
	outcomes := make([]outcome, cfg.Requests)
	for i := range outcomes {
		outcomes[i].caseIdx = -1 // marks "never started" if ctx cancels early
	}
	latencies := make([][]time.Duration, len(cases))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := splitmix.New(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(w+1))
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests || ctx.Err() != nil {
					return
				}
				outcomes[i] = runOne(ctx, client, cases, cfg, i, &r)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Duration: elapsed}
	caseReps := make([]CaseReport, len(cases))
	for i := range cases {
		caseReps[i].Name = cases[i].Name
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.caseIdx < 0 { // never started (context cancelled)
			continue
		}
		cr := &caseReps[o.caseIdx]
		cr.Sent++
		cr.Shed += o.shed
		cr.Unavailable += o.unavail
		cr.Retries += o.retries
		rep.Shed += o.shed
		rep.Unavailable += o.unavail
		if o.conflict {
			cr.Conflicts++
			rep.Conflicts++
		}
		if o.answer == nil {
			continue
		}
		latencies[o.caseIdx] = append(latencies[o.caseIdx], o.latency)
		if o.answer.Accepted {
			cr.Admitted++
			rep.Admitted++
			if o.answer.Degraded {
				cr.Degraded++
			}
			if o.grant != nil {
				rep.Grants = append(rep.Grants, *o.grant)
			}
		} else {
			cr.Rejected++
			rep.Rejected++
		}
	}
	for i := range caseReps {
		ls := latencies[i]
		sort.Slice(ls, func(a, b int) bool { return ls[a] < ls[b] })
		caseReps[i].P50 = percentile(ls, 0.50)
		caseReps[i].P99 = percentile(ls, 0.99)
		caseReps[i].P999 = percentile(ls, 0.999)
		if len(ls) > 0 {
			caseReps[i].Max = ls[len(ls)-1]
		}
	}
	rep.Cases = caseReps
	if secs := elapsed.Seconds(); secs > 0 {
		rep.AdmitPerSec = float64(rep.Admitted) / secs
	}
	return rep, nil
}

// runOne pushes one submission (and its optional cancel) through the
// retry loop.
func runOne(ctx context.Context, client *http.Client, cases []Case, cfg Config, i int, r *splitmix.Rand) outcome {
	c := cases[i%len(cases)]
	o := outcome{caseIdx: i % len(cases)}
	req := submitWire{
		JobID: jobIDBase + i, Mode: c.Mode, Slack: c.Slack,
		Cores: c.Cores, Ways: c.Ways, TW: c.TW, DeadlineIn: c.DeadlineIn,
		WaitMS: cfg.WaitMS, Negotiate: c.Negotiate,
	}
	body, _ := json.Marshal(req)
	for try := 0; try <= cfg.Retries; try++ {
		if try > 0 {
			o.retries++
			select {
			case <-ctx.Done():
				return o
			case <-time.After(backoff(try-1, r)):
			}
		}
		t0 := time.Now()
		status, ansBody, err := post(ctx, client, cfg.BaseURL+"/v1/submit", body)
		if err != nil {
			o.unavail++
			continue
		}
		switch status {
		case http.StatusOK:
			var ans submitAnswer
			if json.Unmarshal(ansBody, &ans) != nil {
				o.unavail++
				continue
			}
			o.answer = &ans
			o.latency = time.Since(t0)
			if ans.Accepted {
				g := Grant{JobID: req.JobID, Node: ans.Node, ResID: ans.ReservationID, Mode: ans.Mode, Seq: ans.Seq}
				if cfg.Cancel {
					g.Cancelled, g.CancelUnknown = cancelJob(ctx, client, cfg, req.JobID)
				}
				o.grant = &g
			}
			return o
		case http.StatusServiceUnavailable:
			o.shed++
			continue
		case http.StatusConflict:
			// A retried submit whose earlier attempt actually landed: the
			// job IS admitted, we just never saw the ack. Count it so the
			// chaos harness can exclude these from exact-match assertions.
			o.conflict = true
			return o
		default:
			o.unavail++
			continue
		}
	}
	return o
}

// cancelJob cancels a granted admission. acked means the daemon
// confirmed the release; unknown means the answer was lost in flight, or
// was a 500 whose body says the outcome is unknown (the cancel may have
// been logged before a crash), so the job's post-recovery liveness is
// legitimately ambiguous.
func cancelJob(ctx context.Context, client *http.Client, cfg Config, jobID int) (acked, unknown bool) {
	body, _ := json.Marshal(map[string]int{"job_id": jobID})
	status, ans, err := post(ctx, client, cfg.BaseURL+"/v1/cancel", body)
	if err != nil {
		return false, true
	}
	var failed struct{ Outcome string }
	json.Unmarshal(ans, &failed)
	return status == http.StatusOK, status == http.StatusInternalServerError && failed.Outcome == "unknown"
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// percentile reads a sorted latency slice with the nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// Run reads p in [0.5, 1): then 0 ≤ idx < len(sorted).
	return sorted[int(float64(p*float64(len(sorted)))+0.5)-1]
}

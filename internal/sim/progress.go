// The measured-progress signal layer and the feedback controller stage
// of the policy pipeline (DESIGN §13). The paper's framework is
// open-loop: admission converts a RUM into a static reservation and the
// allocator replays it until completion. This layer closes the loop:
// on a fixed cadence the runner samples every reserved running job's
// measured-vs-promised progress — budget burn-down against instruction
// retirement, with the shadow-tag slowdown as a contention signal — and
// hands the samples to the configured Controller, which may retune two
// knobs: per-job way boosts drawn from the epoch's idle way pool
// (never below a job's negotiated envelope — boosts only add), and the
// LAC's admission headroom (extra ways a probe must find free, a brake
// on new work when the node is behind on its promises).
//
// Controller ticks are QoS events: the event-horizon fast-forward caps
// every steady window at the next tick while a controller is active
// (fastforward.go), so the stepped and skipped paths observe identical
// tick sequences and stay bit-identical. The "static" controller is
// nil — no ticks, no caps, no code-path change — which is what keeps
// the default pipeline byte-identical to the open-loop engine.
package sim

import "cmpqos/internal/steal"

// ctrlDefaultIntervalEpochs is the controller cadence when
// Config.CtrlIntervalCycles is zero, in epochs.
const ctrlDefaultIntervalEpochs = 64

// Controller tuning shared by the built-in feedback policies.
const (
	// ctrlDeadband sets the controllers' progress target at 1+deadband:
	// they steer behind jobs slightly ahead of schedule, not merely back
	// to it, so a rescued job re-crosses its promise with margin instead
	// of limping along the violation boundary.
	ctrlDeadband = 0.05
	// pidKp/pidKi are the proportional and integral gains; the integral
	// term decays by pidIntegDecay per tick so old error leaks away.
	pidKp         = 16.0
	pidKi         = 0.5
	pidIntegDecay = 0.5
)

// ProgressSample is one reserved running job's measured progress at a
// controller tick.
type ProgressSample struct {
	Job *Job
	// Ratio is measured progress over promised progress: fraction of
	// instructions retired over fraction of reserved wall-clock budget
	// burned. 1.0 means exactly on schedule; below 1 the job is behind
	// the promise its reservation encodes.
	Ratio float64
	// Slowdown is the shadow-tag excess miss ratio (misses with the
	// current allocation relative to the duplicate-tag baseline at the
	// original allocation) — the §4.3 measured-slowdown signal, nonzero
	// only for jobs with stealing state.
	Slowdown float64
}

// Controller is the feedback stage of the policy pipeline: Tick runs on
// the controller cadence with the progress samples of every reserved
// running job and may retune per-job way boosts (Job.SetCtrlBoost) and
// the admission headroom (Runner.SetAdmissionHeadroom). Implementations
// must be deterministic pure functions of the samples and their own
// state — ticks replay identically across the stepped and
// fast-forwarded paths.
type Controller interface {
	Tick(r *Runner, now int64, samples []ProgressSample)
}

// nextCtrlTickAt returns the first controller tick instant ≥ n: ticks
// sit on the grid k·interval for k ≥ 1 (never at cycle 0 — there is
// nothing to measure before the first interval elapses).
func (r *Runner) nextCtrlTickAt(n int64) int64 {
	i := r.ctrlInterval
	t := ((n + i - 1) / i) * i
	if t < i {
		t = i
	}
	return t
}

// ctrlDue reports whether a controller tick lands inside the epoch
// [now, epochEnd). step evaluates it once per stepped epoch; the
// fast-forward guarantees no skipped window ever contains a tick.
func (r *Runner) ctrlDue(epochEnd int64) bool {
	return r.nextCtrlTickAt(r.now) < epochEnd
}

// ctrlTick runs one controller tick: sample, retune, and invalidate the
// way split so the next plan reflects the new boosts.
func (r *Runner) ctrlTick() {
	cs := r.ctrlState
	cs.ticks++
	cs.samples = r.appendProgressSamples(cs.samples[:0])
	r.ctrl.Tick(r, r.now, cs.samples)
	r.planWaysDirty = true
}

// appendProgressSamples appends the tick's samples over the reserved
// running jobs to s, in acceptance order (determinism).
func (r *Runner) appendProgressSamples(s []ProgressSample) []ProgressSample {
	for _, j := range r.accepted {
		if !j.ReservedRunning(r.now) {
			continue
		}
		// Promised progress is budget burn-down over the same reserved
		// wall-clock budget overBudget enforces. Both spans are positive:
		// a tick runs before the epoch's plan starts jobs, so a running
		// job started an epoch or more ago, and its budget ends after its
		// start (a tw, or a deadline its opportunistic start preceded).
		elapsed := r.now - j.Started
		budget := j.budgetEnd() - j.Started
		promised := float64(elapsed) / float64(budget)
		if promised > 1 {
			promised = 1
		}
		measured := float64(j.InstrDone) / float64(j.InstrTotal)
		s = append(s, ProgressSample{
			Job:      j,
			Ratio:    measured / promised,
			Slowdown: steal.ExcessMissRatio(j.MainMisses, j.ShadowMisses),
		})
	}
	return s
}

// applyCtrlBoosts grants the controller's per-job way boosts out of the
// epoch's idle way pool, after the allocator stage has set every
// reservation-derived share and before the plan (and its fragmentation
// memo) is built. Boosts only ever add ways on top of the negotiated
// envelope — a strict job's reservation is the floor, so the clamp the
// control plane promises ("never below the envelope") holds by
// construction — and they stop at the pool: reserved shares and
// opportunistic scavengers are never taken from.
func (r *Runner) applyCtrlBoosts(byCore [][]*Job) {
	if r.ctrl == nil {
		return
	}
	idle := float64(r.cfg.L2.Ways - r.waysDown())
	for _, jobs := range byCore {
		for _, j := range jobs {
			idle -= j.WaysF
		}
	}
	// Grant in rounds of one way each (byCore order within a round) so a
	// large boost never starves a smaller one when the pool is short —
	// two lagging jobs share a two-way pool one-and-one, not two-and-zero.
	// The wants are copied into a reusable scratch so the controller's
	// boosts persist unconsumed across plan rebuilds between ticks.
	wants := r.ctrlState.grants[:0]
	for _, jobs := range byCore {
		for _, j := range jobs {
			if j.ctrlBoost > 0 && j.ReservedRunning(r.now) {
				wants = append(wants, ctrlGrant{j, int(j.ctrlBoost)})
			}
		}
	}
	r.ctrlState.grants = wants
	for granted := true; granted && idle >= 1; {
		granted = false
		for i := range wants {
			if idle < 1 {
				return
			}
			if wants[i].want <= 0 {
				continue
			}
			wants[i].want--
			wants[i].j.setWaysF(wants[i].j.WaysF + 1)
			idle--
			granted = true
		}
	}
}

// ctrlState is what a Runner with a feedback controller keeps for it:
// the reusable sample and grant scratch, and the tick counter the
// Report exposes as CtrlRetunes.
type ctrlState struct {
	samples []ProgressSample
	grants  []ctrlGrant
	ticks   int64
}

// ctrlGrant is applyCtrlBoosts' scratch: one job's remaining ungranted
// boost during the round-robin pool split.
type ctrlGrant struct {
	j    *Job
	want int
}

// SetAdmissionHeadroom forwards a controller's headroom retune to the
// node's LAC (no-op for admissionless policies).
func (r *Runner) SetAdmissionHeadroom(ways int) {
	if r.lac != nil {
		r.lac.SetHeadroom(ways)
	}
}

// pidController is a proportional-integral controller on the aggregate
// progress deficit: each behind job's boost scales with its own error,
// and the admission headroom scales with the node-wide error plus its
// decayed integral — sustained under-delivery tightens admission
// harder than a transient dip.
type pidController struct {
	maxBoost    int
	maxHeadroom int
	integ       float64
}

func (c *pidController) Tick(r *Runner, now int64, samples []ProgressSample) {
	var errSum float64
	for _, s := range samples {
		// Fold the measured slowdown into the ratio: a donor whose shadow
		// tags show contention losses is further behind than burn-down
		// alone suggests. The error is against the 1+deadband target.
		e := 1 + ctrlDeadband - s.Ratio/(1+s.Slowdown)
		if e < 0 {
			e = 0
		}
		errSum += e
		// float64(…) rounds each product on its own: no platform fuses
		// it into a multiply-add here or below.
		boost := int(float64(pidKp*e) + 0.5)
		if boost > c.maxBoost {
			boost = c.maxBoost
		}
		s.Job.SetCtrlBoost(boost)
	}
	c.integ = float64(c.integ*pidIntegDecay) + errSum
	h := int(float64(pidKp*errSum) + float64(pidKi*c.integ))
	// Every error term is ≥ 0, so is the integral, and h.
	r.SetAdmissionHeadroom(min(h, c.maxHeadroom))
}

// aimdController is additive-increase/multiplicative-decrease on both
// knobs: a behind job gains one boost way per tick and halves once it
// is ahead of the 1+deadband target (the gap between the two thresholds
// is hysteresis — a recovering job keeps its boost until it has real
// margin); the headroom grows by one while any job is behind and
// halves when the node meets its promises.
type aimdController struct {
	maxBoost    int
	maxHeadroom int
	headroom    int
}

func (c *aimdController) Tick(r *Runner, now int64, samples []ProgressSample) {
	behind := false
	for _, s := range samples {
		j := s.Job
		switch eff := s.Ratio / (1 + s.Slowdown); {
		case eff < 1:
			behind = true
			if b := j.CtrlBoost() + 1; b <= c.maxBoost {
				j.SetCtrlBoost(b)
			}
		case eff >= 1+ctrlDeadband:
			j.SetCtrlBoost(j.CtrlBoost() / 2)
		}
	}
	if behind {
		if c.headroom < c.maxHeadroom {
			c.headroom++
		}
	} else {
		c.headroom /= 2
	}
	r.SetAdmissionHeadroom(c.headroom)
}

// Event-horizon fast-forward (DESIGN §11): between QoS events the epoch
// loop repeats the same arithmetic — the plan cache already proves the
// core/way plan constant, and this layer proves the *advance* constant
// too, so a whole window of steady epochs collapses into one closed-form
// update. steadyWindow computes the largest window k such that epochs
// [now, now+k·E) are provably event-free and every per-epoch delta is
// bit-identical across them; applySteady then advances job progress,
// miss counters, the bus, fragmentation accounting, and the clock by k
// epochs at once. Soundness is strict bit-identity: if any quantity
// could differ from the stepped path — a clamp, a phase change, a bus
// utilization drift, a stealing decision — the window shrinks to end
// before it, or to zero, and the engine steps normally.
//
// The bus couples consecutive epochs: utilization sets the miss penalty,
// the penalty sets per-epoch instructions, instructions set misses, and
// misses set the next window's utilization. That feedback usually
// converges not to a fixed point but to a period-2 limit cycle (u0 ↔ u1
// oscillation), so the window supports both periods: period 1 when the
// traffic reproduces the current utilization exactly, period 2 when the
// two parities reproduce each other — each parity priced at its own
// utilization, the window an even number of epochs, and saturation
// state equal across both (so pause inputs stay constant).
package sim

import (
	"math"

	"cmpqos/internal/cpu"
	"cmpqos/internal/qos"
	"cmpqos/internal/steal"
)

// ffChunkEpochs caps one proved window: it bounds k·E and a fleet
// node's wake, and it is how often cancellation is polled when a
// steady stretch covers millions of epochs. Chunking is exact because
// applySteady(a) followed by applySteady(b) leaves every accumulator
// as applySteady(a+b) does — integers trivially, floats because
// repeatAdd returns what the stepped additions leave however a window
// is split (TestRepeatAddLargeK).
const ffChunkEpochs = int64(1) << 20

// jobDelta is one planned job's per-epoch advance, captured by
// steadyWindow and applied k-fold by applySteady. It names no job: a
// parity's deltas are in plan order, and their readers walk the plan
// (r.byCore) beside them.
type jobDelta struct {
	instr    int64   // instructions retired per epoch
	consumed int64   // cycles consumed per epoch
	misses   int64   // main-tag misses per epoch
	shadow   int64   // shadow-tag misses per epoch
	base     float64 // BaselineCycles addend per epoch
}

// unpriced is ffPricedAt with neither parity priced.
var unpriced = [2]float64{math.NaN(), math.NaN()}

// epochDeltas prices one steady epoch of the given bus-cycle parity at
// bus utilization u, filling the parity's half of the scratch
// (parityDeltas) with the per-job deltas in plan order and returning the
// epoch's total fill and write-back transfers. A delta is advanceJob's
// arithmetic without its Remaining clamp, which fires only in an epoch
// that completes the job: a delta past its job's remaining work makes
// the job's progress per period exceed it, steadyAttempt's completion
// cap then closes the window at zero, and advanceAll applies a held
// delta only within the job's remaining work.
//
// A pricing is recorded in ffPricedAt: the plan has not changed since
// (buildPlan clears the record), so at the same u every delta is the
// same, and only the totals are summed again (DESIGN §11.7). Parity 0
// at the u the other parity's half was priced at swaps the halves,
// since a pricing depends on its parity only through u. A plan with a
// phased job is never recorded: phaseScale moves with progress inside
// a plan.
func (r *Runner) epochDeltas(u float64, parity int) (miss, wb int64) {
	if parity == 0 && r.ffPricedAt[1] == u && r.ffPricedAt[0] != u {
		r.ffSwapped = !r.ffSwapped
		r.ffPricedAt[0], r.ffPricedAt[1] = r.ffPricedAt[1], r.ffPricedAt[0]
	}
	jobs := 0
	for _, onCore := range r.byCore {
		jobs += len(onCore)
	}
	if r.ffPricedAt[parity] == u {
		for _, d := range r.parityDeltas(parity)[:jobs] {
			miss += d.misses
			wb += writeBacks(d.misses)
		}
		return miss, wb
	}
	r.ffPricedAt[parity] = math.NaN()
	if n := len(r.ffDeltas) / 2; n < jobs {
		// Both parities in one allocation, each half sized for the most
		// jobs a plan of this run holds (deltaJobs). Started at a job per
		// core, a filling node regrew its scratch about twice a run. The
		// old halves hold no pricing of this plan to keep: it has more
		// jobs than they do.
		n = max(jobs, 2*n, r.deltaJobs())
		r.ffDeltas = make([]jobDelta, 2*n)
	}
	ds := r.parityDeltas(parity)
	E := r.cfg.EpochCycles
	record := true
	i := 0
	for _, onCore := range r.byCore {
		n := int64(len(onCore))
		if n == 0 {
			continue
		}
		// Processor sharing, exactly as advanceAll splits the epoch.
		share := E / n
		for _, j := range onCore {
			pen := r.penaltyForAt(j, u)
			cpi := r.model.cpiFor(j, pen)
			instr := int64(float64(share) / cpi)
			if instr <= 0 {
				instr = 1
			}
			misses, shadow, wbJ := r.model.steadyDeltas(j, instr)
			base := float64(instr) * cpi
			if j.Stealer != nil {
				// CPIF at the original allocation (advanceJob's stealer
				// baseline), constant while pen is.
				base = float64(instr) * cpu.CPI(j.Profile.CPIL1Inf, j.Profile.L2APA, j.mpifRes, pen)
			}
			ds[i] = jobDelta{
				instr: instr, consumed: int64(float64(instr) * cpi),
				misses: misses, shadow: shadow, base: base,
			}
			i++
			miss += misses
			wb += wbJ
			if j.InstrTotal > 0 && len(j.Profile.Phases) > 0 {
				record = false
			}
		}
	}
	if record {
		r.ffPricedAt[parity] = u
	}
	return miss, wb
}

// parityDeltas is the half of the delta scratch that holds the given
// parity's pricing, one entry per job of the plan it priced, in plan
// order, and room to spare.
func (r *Runner) parityDeltas(parity int) []jobDelta {
	if r.ffSwapped {
		parity ^= 1
	}
	n := len(r.ffDeltas) / 2
	return r.ffDeltas[parity*n : (parity+1)*n]
}

// deltaJobs is how many jobs the delta scratch is sized for: the jobs
// the run accepts (its accept target, or its script's length), at most
// cores·OpportunisticPerCore — what an admission-controlled node runs at
// once, and a bound on a run whose target is far above it — and at
// least a job per core. A fleet node's target is the fleet's, so it
// starts at a job per core. A plan that holds more regrows the scratch.
func (r *Runner) deltaJobs() int {
	cores := len(r.byCore)
	n := r.cfg.AcceptTarget
	if len(r.cfg.Script) > 0 {
		n = len(r.cfg.Script)
	}
	if r.external {
		n = cores
	}
	return max(cores, min(n, cores*qos.OpportunisticPerCore))
}

// steadyWindow returns how many upcoming epochs (at most maxK) can be
// advanced in closed form, filling the first parity's deltas (and, for
// a period-2 bus cycle, the second's, with r.ffPeriod=2) that the caller
// must apply via applySteady immediately (any intervening mutation
// invalidates the scratch). Zero means "step normally".
//
// The window is the minimum of every event horizon:
//   - planWake: the next timed scheduling transition (job start,
//     auto-downgrade switch-back) — also what keeps every
//     ReservedRunning test and its bus-priority penalty constant;
//   - the next fault instant (applyFaults fires strictly below the
//     epoch end, so k epochs are silent iff the next point is ≥ now+kE);
//   - the next scripted arrival, or a Poisson arrival in the current
//     epoch (later Poisson arrivals are admitted by admitWindow and
//     only an acceptance ends the window; cluster nodes receive
//     arrivals externally and are horizon-capped by the cluster);
//   - the next controller tick, while jobs are live;
//   - per job: completion (no Remaining clamp may fire mid-window),
//     the reserved wall-clock budget, the next workload phase change,
//     and the resource-stealing interval guard (stealHorizon);
//   - the bus: either a fixed point (the window's constant traffic
//     reproduces the current utilization bit for bit) or a period-2
//     limit cycle (each parity's traffic reproduces the other's
//     utilization, with equal saturation state), which makes every
//     penalty and Saturated() test inside the window exact by
//     induction.
//
// A reservation edge is no horizon: LAC queries take the arrival's
// cycle, never the node's clock, and the LAC's one time-driven change,
// Timeline.Prune inside LAC.Complete, runs at a completion, where the
// completion cap already ends the window.
func (r *Runner) steadyWindow(maxK int64) int64 {
	if r.ffDefer > 0 {
		// Backing off after recent failed proofs (see below): stepping is
		// always exact, so deferring the attempt trades skipped epochs
		// for not re-pricing a window that just failed to close. Without
		// it, event-dense runs pay a failed O(jobs) proof per epoch.
		r.ffDefer--
		return 0
	}
	r.ffPriced = false
	k := r.steadyAttempt(maxK)
	switch {
	case k > 0:
		r.ffFails = 0
	case r.ffPriced:
		// Only a priced failure — one that got past the cheap horizon
		// caps and paid the O(jobs) delta computation — escalates the
		// backoff; cheap failures (stale plan, an imminent arrival or
		// wake) cost a few compares and usually precede a provable
		// window, so metering them would forfeit it.
		if r.ffFails < 6 {
			r.ffFails++
		}
		r.ffDefer = int8(1) << (r.ffFails - 1) // 1, 2, ... capped at 32
	}
	return k
}

// steadyAttempt is steadyWindow's proof body, separated so the backoff
// above can meter how often it runs.
func (r *Runner) steadyAttempt(maxK int64) int64 {
	if !r.skipOK || !r.planOK || r.planWaysDirty {
		return 0
	}
	E := r.cfg.EpochCycles
	N := r.now
	if N >= r.planWake {
		return 0
	}
	k := (r.planWake-1-N)/E + 1
	if maxK < k {
		k = maxK
	}
	if r.faultsPending() {
		if kf := (r.faults.pts[r.faults.pos].at - N) / E; kf < k {
			k = kf
		}
	}
	if !r.external {
		if len(r.cfg.Script) > 0 {
			if pos := r.src.scriptPos; pos < len(r.cfg.Script) {
				if ka := (r.cfg.Script[pos].Arrival - N) / E; ka < k {
					k = ka
				}
			}
		} else if r.acceptedN < r.cfg.AcceptTarget {
			if r.src.nextArr < N+E {
				return 0 // this epoch's arrivals are the step's to admit
			}
			// Later arrivals do not cap the window: admitWindow
			// admits them once k is fixed.
		}
	}
	if r.ctrl != nil && r.liveCount() > 0 {
		// Controller ticks are QoS events: the window must close before
		// the epoch containing the next tick, so the tick executes on the
		// stepped path with exactly the state a fully stepped run would
		// have. (Idle stretches are exempt — step would not tick either.)
		if kc := (r.nextCtrlTickAt(N) - N) / E; kc < k {
			k = kc
		}
	}
	if k <= 0 {
		return 0
	}

	r.ffPriced = true
	// First parity, priced at the live utilization. If its traffic
	// reproduces that utilization exactly the window is period 1;
	// otherwise try to close a period-2 cycle: the second parity, priced
	// at the utilization the first one produces, must hand the exact
	// starting utilization back (and must not flip saturation, which
	// would flip the stealing pause input between parities).
	u0 := r.bus.Utilization()
	miss0, wb0 := r.epochDeltas(u0, 0)
	u1 := r.bus.WindowUtilization(miss0+wb0, E)
	d0s := r.parityDeltas(0)
	r.ffPeriod = 1
	if u1 != u0 {
		if r.bus.SaturatedAt(u1) != r.bus.SaturatedAt(u0) {
			return 0
		}
		// For speed only: a job the first parity's epoch leaves at most
		// one instruction has no period-2 window (its period retires
		// all of it, and the completion cap below closes the window at
		// zero), so the second parity goes unpriced.
		i := -1
		for _, jobs := range r.byCore {
			for _, j := range jobs {
				i++
				if d0s[i].instr >= j.Remaining()-1 {
					return 0
				}
			}
		}
		miss1, wb1 := r.epochDeltas(u1, 1)
		if r.bus.WindowUtilization(miss1+wb1, E) != u0 {
			return 0
		}
		r.ffPeriod = 2
	}
	P := int64(r.ffPeriod)
	k -= k % P // the window must hand back the starting utilization

	d1s := r.parityDeltas(1)
	i := -1
	for _, jobs := range r.byCore {
		for _, j := range jobs {
			i++
			// iSum is the job's progress per period; extra the offset of
			// the period's second epoch (its start is t·iSum+extra).
			iSum, extra := d0s[i].instr, int64(0)
			if P == 2 {
				iSum += d1s[i].instr
				extra = d0s[i].instr
			}
			// The job must keep ≥1 remaining instruction after every
			// skipped epoch, so neither the clamp nor the completion path
			// can fire inside the window (progress peaks at the window's
			// end).
			if kc := P * ((j.Remaining() - 1) / iSum); kc < k {
				k = kc
			}
			if r.cfg.EnforceWallClock && j.ReservedRunning(N) {
				// The window must close before the first epoch whose start
				// reaches the budget end overBudget terminates at.
				budgetEnd := j.budgetEnd()
				if budgetEnd <= N {
					return 0 // terminates this epoch
				}
				if kb := (budgetEnd-1-N)/E + 1; kb-kb%P < k {
					k = kb - kb%P
				}
			}
			if j.InstrTotal > 0 && len(j.Profile.Phases) > 0 && k > 0 {
				if kp := P * phaseHorizon(j, iSum, extra, k/P); kp < k {
					k = kp
				}
			}
			if k <= 0 {
				return 0
			}
		}
	}
	// Stealing guard: every repartitioning interval crossed inside the
	// window must provably return Hold (or the window must end before
	// the first crossing that acts). Runs last because it needs the
	// per-epoch deltas and the already-minimized k.
	i = -1
	for _, jobs := range r.byCore {
		for _, j := range jobs {
			i++
			if j.Stealer == nil {
				continue
			}
			d0, d1 := &d0s[i], &d0s[i]
			if P == 2 {
				d1 = &d1s[i]
			}
			k = r.stealHorizon(j, d0, d1, k)
			if k -= k % P; k <= 0 {
				return 0
			}
		}
	}
	return r.admitWindow(k)
}

// admitWindow admits the Poisson arrivals stamped inside a proved
// window of k epochs, in order, and returns the window cut short by the
// first one accepted. Under the paper's arrival pressure almost every
// arrival is a rejection, and a rejection is not a QoS event: capping
// the window at every arrival, as a scripted arrival still is, made
// most of a paper-scale run's stepped epochs ones that only said no.
//
// Admitting an arrival at the window's start rather than at its own
// epoch gives the answer the stepped run gives, because the window is
// event-free: no completion, fault, controller tick or acceptance
// inside it touches the LAC, so its reservations, headroom and live
// counts are the ones each arrival would meet, and the request carries
// the arrival's own instant. A rejection writes only counters and
// cursors (probe counts, the modeled occupancy, the submit index, the
// deadline and arrival streams, two events at the arrival's cycle) that
// no epoch of the window reads, and in the same order as stepping. The
// first acceptance changes the plan, so the window ends before the
// epoch holding it, rounded down to the bus period: the accepted job
// waits until its start, which is no earlier than its arrival, so the
// up to P−1 epochs stepped before that epoch run the plan a rebuild
// gives without it (the reference engine, which rebuilds every plan,
// holds the cached plan to that).
//
// Scripted arrivals keep their cap (steadyAttempt): the script may
// stamp an arrival before the epoch that admits it, and admission
// clamps it to that epoch's start, which only stepping knows. A fleet
// node's arrivals are the cluster's, so it admits none here.
func (r *Runner) admitWindow(k int64) int64 {
	if r.external || len(r.cfg.Script) > 0 {
		return k
	}
	E := r.cfg.EpochCycles
	for {
		ta, ok, accepted := r.admitNext(r.now + k*E)
		if !ok {
			return k
		}
		if accepted {
			ka := (ta - r.now) / E
			return ka - ka%int64(r.ffPeriod)
		}
	}
}

// stealHorizon returns how many of a window's k epochs, alternating the
// deltas d0 and d1 (d1 == d0 for period 1), can pass with every
// stealing-interval crossing inside them returning Hold. A crossing's
// verdict depends on the controller state (stolen ways, way floor), the
// pause input (bus saturation — equal across both parities, which
// steadyAttempt checked; the table engine's stealReady is constant), and
// the guard ratio (main−shadow)/shadow. Since the crossing epochs depend
// on the alternation phase, the guard bounds them instead of tracking
// them: no crossing comes before epoch e1 = ⌈(interval−instrLastSteal)/
// max(i0,i1)⌉ (i the parities' instructions), and after e epochs the
// job's counters lie in main ∈ MainMisses+e·[mLo, mHi] and shadow ∈
// ShadowMisses+e·[sLo, sHi], the bounds the parities' deltas set. The
// ratio's envelopes built from those extremes are Möbius functions of e,
// monotone toward their limits, so "Hold at every e in [e1, k]" — a
// superset of the true crossings — follows from the two endpoints, and
// the largest safe window is a binary search on the single flip point.
// With d1 == d0 the envelopes are the exact ratio.
func (r *Runner) stealHorizon(j *Job, d0, d1 *jobDelta, k int64) int64 {
	interval := r.cfg.StealIntervalInstr
	// instrLastSteal < interval is runStealing's invariant.
	iMax := max(d0.instr, d1.instr)
	e1 := (interval - j.instrLastSteal + iMax - 1) / iMax
	if e1 > k {
		return k // no crossings inside the window
	}
	c := j.Stealer
	paused := r.bus.Saturated() || !r.model.stealReady(j)
	stolen := c.Stolen() > 0
	floor := c.AtFloor()
	switch {
	case !stolen && (paused || floor):
		// Nothing stolen: no rollback possible; paused or at the floor:
		// no steal possible. Every crossing Holds regardless of ratio.
		return k
	case stolen && !paused && !floor:
		// Any crossing acts: StealOne below the bound, Rollback at it.
		return e1 - 1
	}
	mLo, mHi := min(d0.misses, d1.misses), max(d0.misses, d1.misses)
	sLo, sHi := min(d0.shadow, d1.shadow), max(d0.shadow, d1.shadow)
	if j.ShadowMisses == 0 && sLo == 0 && sHi > 0 {
		// The shadow count may read zero at a crossing (ratio 0) or not:
		// no envelope brackets that.
		return e1 - 1
	}
	// The remaining regimes Hold iff the ratio stays on one side of the
	// slack bound: with ways stolen a ratio at/over the bound rolls back,
	// so even the upper envelope (most main, fewest shadow misses) must
	// stay under it; with nothing stolen (and steals possible) a ratio
	// under the bound steals, so even the lower envelope must reach it.
	wantBelow := stolen
	holdAt := func(e int64) bool {
		if wantBelow {
			return steal.ExcessMissRatio(j.MainMisses+e*mHi, j.ShadowMisses+e*sLo) < c.Slack()
		}
		return steal.ExcessMissRatio(j.MainMisses+e*mLo, j.ShadowMisses+e*sHi) >= c.Slack()
	}
	if !holdAt(e1) {
		return e1 - 1
	}
	if holdAt(k) {
		return k
	}
	lo, hi := e1, k // holdAt(lo) && !holdAt(hi); monotone between
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if holdAt(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// phaseHorizon caps the window (in periods) so the job's matched
// workload phase — and therefore its MPI scale, CPI, and miss deltas —
// is the same at every epoch inside it. Epoch starts within m periods
// sit at t·iSum and t·iSum+extra (t < m; extra=0 collapses to period
// 1), peaking at (m−1)·iSum+extra. The matched phase index is
// non-decreasing in progress (each phase's progress ≤ Until eligibility
// only switches off), so checking the peak covers every start, and the
// largest still-matching m is a binary search.
func phaseHorizon(j *Job, iSum, extra, m int64) int64 {
	idx := phaseIndexAt(j, j.InstrDone)
	match := func(t int64) bool {
		return phaseIndexAt(j, j.InstrDone+t*iSum+extra) == idx
	}
	if match(m - 1) {
		return m
	}
	if !match(0) {
		return 0
	}
	lo, hi := int64(0), m-1 // period offset t: lo matches, hi does not
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if match(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// phaseIndexAt evaluates Profile.PhaseScale's phase match (the first
// phase whose Until bound covers the progress fraction; the phase count
// when none) with the exact float arithmetic the model uses.
func phaseIndexAt(j *Job, done int64) int {
	progress := float64(done) / float64(j.InstrTotal)
	i := 0
	for i < len(j.Profile.Phases) && progress > j.Profile.Phases[i].Until {
		i++
	}
	return i
}

// applySteady advances the run by k provably-steady epochs using the
// deltas the immediately preceding steadyWindow captured. Integer
// accumulators advance by k·delta (exact); float accumulators advance
// through repeatAdd, which returns the bits k stepped additions leave
// without performing them — byte-identity with the stepped path is the
// contract, and x + k·d is not it. Per-accumulator operation sequences
// match the stepped path's exactly; accumulators are independent, so
// the epoch-major vs job-major interleaving difference is unobservable.
// The window is m = k/ffPeriod rounds of the parities in stepped order;
// a period-1 window's second parity is zero. The deltas are in plan
// order, so the plan's jobs are walked beside them. The bus is left
// alone: the window's proof made its last epoch's traffic hand back the
// utilization it started from, and no window traffic is pending between
// epochs.
func (r *Runner) applySteady(k int64) {
	m := k / int64(r.ffPeriod)
	d0s, d1s := r.parityDeltas(0), r.parityDeltas(1)
	var none jobDelta
	i := -1
	for _, jobs := range r.byCore {
		for _, j := range jobs {
			i++
			d0, d1 := &d0s[i], &none
			if r.ffPeriod == 2 {
				d1 = &d1s[i]
			}
			j.InstrDone += m * (d0.instr + d1.instr)
			j.ActualCycles += m * (d0.consumed + d1.consumed)
			j.MainMisses += m * (d0.misses + d1.misses)
			j.ShadowMisses += m * (d0.shadow + d1.shadow)
			j.BaselineCycles = repeatAdd(j.BaselineCycles, d0.base, d1.base, m)
			if j.Stealer != nil {
				// Every crossing in the window Held (stealHorizon proved
				// it), so the interval clock just wraps.
				j.instrLastSteal = (j.instrLastSteal + m*(d0.instr+d1.instr)) % r.cfg.StealIntervalInstr
			}
		}
	}
	r.frag.idleCores = repeatAdd(r.frag.idleCores, r.planIdleCores, 0, k)
	r.frag.idleWays = repeatAdd(r.frag.idleWays, r.planIdleWays, 0, k)
	r.frag.internal = repeatAdd(r.frag.internal, r.planInternal, 0, k)
	r.now += k * r.cfg.EpochCycles
	r.epochIdx += k
	r.nSkipped += k
}

// catchUp replays a cluster node from its own clock to the cluster's,
// preferring closed-form windows and falling back to stepping an epoch
// whenever steadyWindow cannot prove the next one steady. Either path
// is the exact legacy epoch sequence, so a node that slept on a stale
// horizon still replays bit-identically.
//
// The first window is the one nextHorizon proved before the node went
// to sleep, when that record still holds: nothing since has moved the
// clock or mutated the node, so steadyWindow(need) would re-derive
// min(k, need) rounded down to the bus period — every cap it takes is
// min(k, C) with C independent of maxK — from the very deltas still in
// the scratch, and leave the backoff meter where it is (a proof that
// succeeded ran with ffDefer 0 and left ffFails 0). When the rounding
// leaves nothing (a period-2 window woken after an odd number of
// epochs), the loop below takes the priced failure and the step that
// re-proving would. The loop asks for the whole distance: a node is
// caught up to at most its wake, the end of a window nextHorizon
// capped at ffChunkEpochs, and a longer window would be exact anyway.
func (r *Runner) catchUp(to int64) {
	if k := r.ffProvedK; k > 0 && r.ffProvedAt == r.now {
		if need := (to - r.now) / r.cfg.EpochCycles; need < k {
			k = need
		}
		if k -= k % int64(r.ffPeriod); k > 0 {
			r.applySteady(k)
		}
	}
	for r.now < to {
		if k := r.steadyWindow((to - r.now) / r.cfg.EpochCycles); k > 0 {
			r.applySteady(k)
		} else {
			r.step()
		}
	}
}

// nextHorizon returns the absolute cycle at which this node next needs
// to execute an epoch — a fleet node's wake after a step — and
// records the window it proved for catchUp.
func (r *Runner) nextHorizon() int64 {
	k := r.steadyWindow(ffChunkEpochs)
	r.ffProvedAt, r.ffProvedK = r.now, k
	return r.now + k*r.cfg.EpochCycles
}

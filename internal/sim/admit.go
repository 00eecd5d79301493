// Admission stage of the policy pipeline: arrival processing, the
// single probe/submit/renegotiate code path against the LAC, and the
// tw budgeting that turns job templates into RUM requests. The LAC
// places the timeslots FCFS earliest-fit (§5), latest-fit only for an
// All-Strict+AutoDown downgrade.
package sim

import (
	"fmt"
	"math"

	"cmpqos/internal/cpu"
	"cmpqos/internal/mem"
	"cmpqos/internal/qos"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// processArrivals submits every job arriving before epochEnd, until the
// workload's accept target is reached (Poisson mode) or the script is
// exhausted (scripted mode).
func (r *Runner) processArrivals(epochEnd int64) {
	s := r.src
	if s == nil {
		s = &arrivalSource{dlmix: workload.NewDeadlineMix(r.seed)}
		r.src = s
	}
	if len(r.cfg.Script) > 0 {
		for s.scriptPos < len(r.cfg.Script) && r.cfg.Script[s.scriptPos].Arrival < epochEnd {
			sj := r.cfg.Script[s.scriptPos]
			e := r.tmpl[len(r.cfg.Workload.Jobs)+s.scriptPos]
			s.scriptPos++
			// No scripted arrival is late: Validate orders the script and
			// a window never skips past the next one (steadyWindow).
			ta := sj.Arrival
			// Scripted per-job overrides ride down the submit path as
			// arguments: the (possibly fleet-shared) Config is never written.
			instr, factor := r.cfg.JobInstr, r.cfg.DeadlineFactor
			if sj.Instr > 0 {
				instr = sj.Instr
			}
			if sj.DeadlineFactor > 0 {
				factor = sj.DeadlineFactor
			}
			r.admit(e, s.dlmix.Next(), ta, e.mode, instr, factor)
		}
		return
	}
	if s.arrivals == nil {
		s.arrivals = workload.NewArrivals(r.seed+1, r.cfg.ProbesPerTw, r.refTW)
		s.nextArr = s.arrivals.Next()
	}
	for {
		if _, ok, _ := r.admitNext(epochEnd); !ok {
			return
		}
	}
}

// admitNext submits the next Poisson arrival if it is stamped before
// end and the accept target is still open. It returns the arrival's
// instant, whether there was one to submit, and whether it was
// accepted. The fast-forward calls it too, with a window's end, for the
// arrivals inside a proved window (steadyAttempt).
//
// A rejected reserved-mode arrival teaches the runner its slot's true
// earliest start S (learnStart). Until the LAC's gen moves or an
// arrival is accepted, an arrival of the slot whose reservation could
// not end by its deadline if it started at S is rejected without an
// admission test and billed as one (DESIGN §11.6);
// admitNext rejects such a run of arrivals in one call, and returns the
// last when none is left before end.
func (r *Runner) admitNext(end int64) (ta int64, ok, accepted bool) {
	s := r.src
	if s.nextArr >= end || r.acceptedN >= r.cfg.AcceptTarget {
		return 0, false, false
	}
	// The workload composition describes the *accepted* jobs (Table 2's
	// percentages and Table 3's mixes are over the ten-job workload):
	// slot k of the composition is retried on every submission until a
	// job is accepted into it.
	slot := r.acceptedN % len(r.cfg.Workload.Jobs)
	ta, dl := max(s.nextArr, r.now), s.dlmix.Next()
	if S := s.boundStart; s.boundGen != 0 && s.boundGen == r.lac.Gen()+1 {
		e := &r.tmpl[slot]
		dur := e.mode.ReservationLength(e.tw)
		for deadlineFor(r.cfg.DeadlineFactor, dl, ta, e.tw)-dur < S {
			r.rejectUnasked(ta)
			if s.nextArr = s.arrivals.Next(); s.nextArr >= end {
				return ta, true, false
			}
			ta, dl = max(s.nextArr, r.now), s.dlmix.Next()
		}
	}
	if accepted = r.submitTemplate(slot, dl, ta); accepted {
		s.boundGen = 0 // the next slot has another shape
	} else {
		r.learnStart(slot, ta)
	}
	s.nextArr = s.arrivals.Next()
	return ta, true, accepted
}

// learnStart records, after the slot's arrival at ta was rejected, the
// slot's earliest start with the deadline lifted — "never" when even
// that fails (a demand over the capacity dark ways left) — with the gen
// it was learned under. An auto-downgrading LAC with headroom learns
// nothing: it tests a Strict job's latest-fit slot at the bare vector,
// while the lifted-deadline start is the headroom-inflated one.
func (r *Runner) learnStart(slot int, ta int64) {
	mode := r.tmpl[slot].mode
	if r.reference || !mode.Reserves() ||
		r.cfg.Policy == AllStrictAutoDown && r.lac.Headroom() > 0 {
		return
	}
	start, ok := r.peekEarliestMode(slot, ta, mode)
	if !ok {
		start = math.MaxInt64
	}
	r.src.boundStart, r.src.boundGen = start, r.lac.Gen()+1
}

// rejectUnasked records a rejection the learned start decided: the
// submission's id and events, as admit records them, and the LAC billed
// for the admission test it did not run.
func (r *Runner) rejectUnasked(ta int64) {
	r.submitIdx++
	r.emit(trace.Event{Cycle: ta, JobID: r.submitIdx, Kind: trace.Submitted})
	r.lac.BillRejection()
	r.rejected++
	r.emit(trace.Event{Cycle: ta, JobID: r.submitIdx, Kind: trace.Rejected})
}

// admitRequest fills the runner's scratch RUM for one admission attempt
// and returns the request targeting it. Every probe, submission, and
// fault-path renegotiation builds its request here — the one admission
// code path — so the ~400 probes per tw window never box a fresh RUM
// into the Target interface (the LAC copies what it needs and never
// retains the pointer).
func (r *Runner) admitRequest(id, ways int, tw, deadline, arrival int64, mode qos.Mode) qos.Request {
	r.rum = qos.RUM{
		Resources:    qos.ResourceVector{Cores: 1, CacheWays: ways},
		MaxWallClock: tw,
		Deadline:     deadline,
	}
	return qos.Request{JobID: id, Target: &r.rum, Mode: mode, Arrival: arrival}
}

// deadlineFor derives a template's absolute deadline from its class, or
// from override when positive (Config.DeadlineFactor, or a scripted
// job's own).
func deadlineFor(override float64, dl workload.DeadlineClass, ta, tw int64) int64 {
	factor := dl.Factor()
	if override > 0 {
		factor = override
	}
	return ta + int64(factor*float64(tw))
}

// peekTemplateMode asks this node's LAC, without side effects, whether
// it could accept a job of the template at slot in the given mode and
// when it would start: every question the cluster's dispatcher asks a
// node. It goes through the uncharged Peek — the dispatcher's lookups
// are bookkeeping, not admission tests, so they must not inflate the
// §7.5 occupancy model — and only the admitting node's Admit is billed.
func (r *Runner) peekTemplateMode(slot int, dl workload.DeadlineClass, ta int64, mode qos.Mode) (start int64, ok bool) {
	tw := r.tmpl[slot].tw
	d := r.lac.Peek(r.admitRequest(-1, r.reqWays, tw, deadlineFor(r.cfg.DeadlineFactor, dl, ta, tw), ta, mode))
	return d.Start, d.Accepted
}

// peekEarliestMode is peekTemplateMode with the deadline lifted
// (deadline 0 = unbounded): the node's true earliest feasible start for
// the arrival's reservation shape, however far away. The dispatch index
// records it after a failed constrained probe; without it a failed
// probe only teaches "not before this arrival's cutoff", which the very
// next arrival's slightly-later deadline invalidates, and a saturated
// fleet re-probes every node per rejection — probe-all in disguise.
// With the true start on file a node stays filed under it until either
// a later deadline reaches it or a LAC.gen move resets it, so fleet-wide
// rejections cost O(1).
func (r *Runner) peekEarliestMode(slot int, ta int64, mode qos.Mode) (start int64, ok bool) {
	d := r.lac.Peek(r.admitRequest(-1, r.reqWays, r.tmpl[slot].tw, 0, ta, mode))
	return d.Start, d.Accepted
}

// submitTemplate runs one admission attempt for the template at slot of
// the workload, under its hinted mode, and returns whether the job was
// accepted.
func (r *Runner) submitTemplate(slot int, dl workload.DeadlineClass, ta int64) bool {
	return r.submitTemplateAs(slot, dl, ta, r.tmpl[slot].mode)
}

// submitTemplateAs is submitTemplate with an explicit mode (the oversub
// dispatcher re-submits rejected reserved work Opportunistically).
func (r *Runner) submitTemplateAs(slot int, dl workload.DeadlineClass, ta int64, mode qos.Mode) bool {
	return r.admit(r.tmpl[slot], dl, ta, mode, r.cfg.JobInstr, r.cfg.DeadlineFactor)
}

// admit runs one admission attempt for a job of template e with instr
// instructions whose deadline factor is dlFactor when positive (the
// configured values, or a scripted job's overrides) and returns whether
// it was accepted. Under
// the paper's arrival pressure (4×128 probes per tw) rejections
// outnumber acceptances ~80:1, so the rejection path records its two
// events and touches nothing else: the Job object and the deadline
// bookkeeping are built only after acceptance.
func (r *Runner) admit(e tmplEntry, dl workload.DeadlineClass, ta int64, mode qos.Mode, instr int64, dlFactor float64) bool {
	r.ffProvedK = 0 // an acceptance changes the plan the window was priced on
	r.submitIdx++
	id := r.submitIdx
	tw := e.tw
	if instr != r.cfg.JobInstr {
		// Scripted per-job instruction override: tw scales with length.
		tw = int64(float64(tw) * float64(instr) / float64(r.cfg.JobInstr))
	}
	td := deadlineFor(dlFactor, dl, ta, tw)
	r.emit(trace.Event{Cycle: ta, JobID: id, Kind: trace.Submitted})

	var dec qos.Decision
	if !r.cfg.Policy.noAdmission() {
		dec = r.lac.Admit(r.admitRequest(id, r.reqWays, tw, td, ta, mode))
		if !dec.Accepted {
			r.rejected++
			r.emit(trace.Event{Cycle: ta, JobID: id, Kind: trace.Rejected})
			return false
		}
	}

	if r.cfg.overrunFactor > 1 && r.acceptedN == r.cfg.overrunJobSlot {
		// Failure injection: this job's user underspecified tw.
		instr = int64(float64(instr) * r.cfg.overrunFactor)
	}
	j := &Job{
		ID:           id,
		Profile:      e.prof,
		Mode:         mode,
		DlClass:      dl,
		Arrival:      ta,
		TW:           tw,
		Deadline:     td,
		InstrTotal:   instr,
		Core:         -1,
		WaysReserved: int32(r.reqWays),
	}
	r.planOK = false // an accepted arrival changes the epoch plan

	if r.cfg.Policy.noAdmission() {
		// No admission control: every job is accepted and handed to the
		// OS scheduler immediately.
		j.State = StateWaiting
		j.StartAt = ta
		r.accepted = append(r.accepted, j)
		r.acceptedN++
		r.emit(trace.Event{Cycle: ta, JobID: id, Kind: trace.Accepted, Detail: ta})
		return true
	}

	j.ReservationID = dec.ReservationID
	switch {
	case dec.AutoDowngraded:
		j.AutoDowngraded = true
		j.SwitchBack = dec.SwitchBack
		j.StartAt = ta // runs opportunistically right away
	case j.Mode.Reserves():
		j.StartAt = dec.Start
	default:
		j.StartAt = ta
	}
	j.State = StateWaiting
	r.accepted = append(r.accepted, j)
	r.acceptedN++
	r.emit(trace.Event{Cycle: ta, JobID: id, Kind: trace.Accepted, Detail: dec.Start})
	return true
}

// negotiate renegotiates one job against the current reservation
// timeline at progressively narrower widths, the shared ladder of the
// fault-refit path (§3-style degraded renegotiation): plain admission
// first — whatever placement the LAC's admission policy makes — then
// the forced §3.4 latest-fit auto-downgrade over the same widths. Each
// width's tw budget is rescaled to that width's modeled CPI
// (refitTW), so the slower narrow run is honestly declared. It returns
// the first accepted decision with its width and tw; the caller
// terminates the job when nothing fits.
func (r *Runner) negotiate(j *Job, maxWays int) (dec qos.Decision, ways int, tw int64) {
	for ways = maxWays; ways >= 1; ways-- {
		tw = r.refitTW(j, ways)
		dec = r.lac.Admit(r.admitRequest(j.ID, ways, tw, j.Deadline, r.now, j.Mode))
		if dec.Accepted {
			return dec, ways, tw
		}
	}
	if j.Mode.Kind != qos.KindOpportunistic {
		for ways = maxWays; ways >= 1; ways-- {
			tw = r.refitTW(j, ways)
			dec = r.lac.AdmitAutoDowngrade(r.admitRequest(j.ID, ways, tw, j.Deadline, r.now, j.Mode))
			if dec.Accepted {
				return dec, ways, tw
			}
		}
	}
	return dec, 0, 0
}

// refitTW budgets the job's remaining instructions at the candidate
// width, using the same CPI model the admission-time tw derivation
// uses: a narrower slot runs at the profile's worse miss ratio, so the
// declared wall-clock grows to match and the reservation stays honest.
func (r *Runner) refitTW(j *Job, ways int) int64 {
	p := j.Profile
	mr := p.MissRatio(ways)
	cpi := cpu.CPI(p.CPIL1Inf, p.L2APA, p.L2APA*mr*p.MaxPhaseScale(), mem.BaseCycles)
	tw := int64(float64(j.Remaining()) * cpi * r.cfg.TwMargin)
	if tw < r.cfg.EpochCycles {
		tw = r.cfg.EpochCycles
	}
	return tw
}

// buildTwTable fills the template table: per slot, the tw budget —
// execution time at the requested ways with an unloaded memory system,
// inflated by the overspecification margin — the resolved profile and
// the hinted mode. The table engine reads the calibrated curve; the
// trace engine profiles the benchmark through the real cache first (the
// paper likewise derives requests from profiled behaviour). Slots of one
// tw key share their budget and profile.
func (sh *nodeShared) buildTwTable() {
	cfg, reqWays := sh.cfg, sh.reqWays
	twJobs := cfg.Workload.Jobs
	for _, sj := range cfg.Script {
		twJobs = append(twJobs[:len(twJobs):len(twJobs)], sj.Template)
	}
	sh.tmpl = make([]tmplEntry, len(twJobs))
	byKey := make(map[string]int, 8) // a tw key's first slot
	for i, jt := range twJobs {
		mode := cfg.ModeForHint(jt.Hint)
		key := twKey(jt)
		if first, ok := byKey[key]; ok {
			sh.tmpl[i] = tmplEntry{tw: sh.tmpl[first].tw, prof: sh.tmpl[first].prof, mode: mode}
			continue
		}
		byKey[key] = i
		p := resolveProfile(jt)
		var mr float64
		if cfg.Engine == EngineTrace {
			// Cold-start profile over the job's own access count: short
			// trace jobs pay a compulsory-miss fraction a steady-state
			// probe would hide, and tw must cover it.
			singleOwner := cfg.L2
			singleOwner.Owners = 1
			accesses := int(float64(cfg.JobInstr) * p.L2APA)
			if accesses > 400_000 {
				accesses = 400_000
			}
			if accesses < 20_000 {
				accesses = 20_000
			}
			// Served from the memoized single-pass curve (bit-exact with
			// a replay through the cache at reqWays): repeated Runner
			// constructions across an experiment grid probe each
			// (benchmark, geometry, window) once, not once per run.
			mr = p.ProbeRatio(singleOwner, cfg.Seed, 0, reqWays, 0, accesses)
		} else {
			mr = p.MissRatio(reqWays)
		}
		// The maximum wall-clock request budgets the worst phase (§3.1's
		// dynamic behaviour): calmer phases become internal fragmentation.
		// A budget is at least one cycle: a tw of 0 asks the LAC to hold
		// the reservation forever (§3.2), which no finite job means.
		cpi := cpu.CPI(p.CPIL1Inf, p.L2APA, p.L2APA*mr*p.MaxPhaseScale(), mem.BaseCycles)
		tw := max(int64(float64(cfg.JobInstr)*cpi*cfg.TwMargin), 1)
		sh.tmpl[i] = tmplEntry{tw: tw, prof: &jobProfile{Profile: p, usefulW: usefulWays(p)}, mode: mode}
		if tw > sh.refTW {
			sh.refTW = tw
		}
	}
}

// twKey identifies a template's wall-clock budget: phased variants of
// the same benchmark budget differently.
func twKey(jt workload.JobTemplate) string {
	if len(jt.Phases) == 0 {
		return jt.Benchmark
	}
	return fmt.Sprintf("%s|%v", jt.Benchmark, jt.Phases)
}

// resolveProfile materializes a template's profile, applying any phase
// override.
func resolveProfile(jt workload.JobTemplate) workload.Profile {
	p := workload.MustByName(jt.Benchmark)
	if len(jt.Phases) > 0 {
		p = p.WithPhases(jt.Phases...)
	}
	return p
}

// The per-epoch execution advance: retiring instructions through the
// active model, wall-clock budget enforcement, and the resource-stealing
// interval clock. This is the consumer of the plan the scheduler and
// allocator stages produce.
package sim

import (
	"cmpqos/internal/cpu"
	"cmpqos/internal/mem"
	"cmpqos/internal/steal"
	"cmpqos/internal/trace"
)

// advanceAll retires one epoch of work on every core (processor-sharing
// among the jobs pinned to a core), runs the stealing controller at its
// repartitioning intervals, and completes jobs.
func (r *Runner) advanceAll(byCore [][]*Job) {
	epoch := r.cfg.EpochCycles
	for _, jobs := range byCore {
		if len(jobs) == 0 {
			continue
		}
		// Processor sharing: every job gets an equal slice of the epoch
		// (the idealization of a fair scheduler).
		share := epoch / int64(len(jobs))
		for _, j := range jobs {
			r.advanceJob(j, share, int64(len(jobs)))
		}
	}
}

// advanceJob retires up to shareCycles worth of work for one job.
// sharers is the processor-sharing degree (wall-clock per consumed cycle).
func (r *Runner) advanceJob(j *Job, shareCycles, sharers int64) {
	epoch := r.cfg.EpochCycles
	pen := r.penaltyFor(j)
	cpi := r.model.cpiFor(j, pen)
	instr := int64(float64(shareCycles) / cpi)
	if instr > j.Remaining() {
		instr = j.Remaining()
	}
	if instr <= 0 {
		instr = 1
	}
	misses, writeBacks := r.model.advance(j, instr)
	r.bus.AddMisses(misses)
	r.bus.AddWriteBacks(writeBacks)
	consumed := int64(float64(instr) * cpi)
	j.InstrDone += instr
	j.ActualCycles += consumed
	if j.Stealer != nil {
		// CPIF at the fixed original allocation, with the curve lookup
		// memoized at Stealer creation (j.mpifRes).
		j.BaselineCycles += float64(float64(instr) * cpu.CPI(j.Profile.CPIL1Inf, j.Profile.L2APA, j.mpifRes, pen))
	} else {
		j.BaselineCycles += float64(float64(instr) * cpi)
	}
	r.runStealing(j, instr)
	if r.cfg.EnforceWallClock && r.overBudget(j) {
		j.Completed = r.now + shareCycles
		j.State = StateTerminated
		j.Core = -1
		j.ctrlBoost = 0 // finished jobs leave the controller's view
		r.doneN++
		r.planOK = false // a termination frees a core and its ways
		if r.lac != nil {
			r.lac.Complete(j.ID, j.Mode, j.Completed)
		}
		r.emit(trace.Event{Cycle: j.Completed, JobID: j.ID, Kind: trace.Terminated})
		if r.fold != nil {
			r.foldJob(j)
		}
		return
	}
	if j.Remaining() == 0 {
		wall := consumed * sharers
		if wall > epoch {
			wall = epoch
		}
		j.Completed = r.now + wall
		j.State = StateDone
		j.Core = -1
		j.ctrlBoost = 0
		r.doneN++
		r.planOK = false // a completion frees a core and its ways
		if r.lac != nil {
			r.lac.Complete(j.ID, j.Mode, j.Completed)
		}
		r.emit(trace.Event{
			Cycle: j.Completed, JobID: j.ID, Kind: trace.Completed,
			DeadlineMet: j.MetDeadline(),
		})
		if r.fold != nil {
			r.foldJob(j)
		}
	}
}

// penaltyFor returns the job's contention-adjusted memory penalty at
// the live bus utilization.
func (r *Runner) penaltyFor(j *Job) float64 {
	return r.penaltyForAt(j, r.bus.Utilization())
}

// penaltyForAt prices the penalty at an explicit bus utilization (the
// second parity of a limit-cycle window is priced before the bus gets
// there). Under a QoS policy the bus serves reserved jobs' requests
// ahead of Opportunistic ones (§4.2 footnote 2); the baselines without
// admission control have no classes to prioritize.
func (r *Runner) penaltyForAt(j *Job, u float64) float64 {
	// latFactor is exactly 1.0 outside latency-spike windows, and x*1.0
	// is the IEEE-754 identity, so fault-free runs stay bit-identical.
	if r.cfg.Policy.noAdmission() {
		return r.bus.MissPenaltyAt(u) * r.latFactor
	}
	if j.ReservedRunning(r.now) {
		return r.bus.MissPenaltyForAt(mem.PrioReserved, u) * r.latFactor
	}
	return r.bus.MissPenaltyForAt(mem.PrioOpportunistic, u) * r.latFactor
}

// overBudget reports whether a reserved-running job has exhausted its
// reserved wall-clock budget.
func (r *Runner) overBudget(j *Job) bool {
	return j.ReservedRunning(r.now) && r.now >= j.budgetEnd()
}

// runStealing advances the Elastic job's repartitioning interval clock
// and applies the controller's actions.
func (r *Runner) runStealing(j *Job, instr int64) {
	if j.Stealer == nil || j.State != StateRunning {
		return
	}
	j.instrLastSteal += instr
	for j.instrLastSteal >= r.cfg.StealIntervalInstr {
		j.instrLastSteal -= r.cfg.StealIntervalInstr
		// Pause (without rolling back) while the bus is saturated (§4.2
		// footnote 2) or the shadow baseline is not trustworthy yet.
		pause := r.bus.Saturated() || !r.model.stealReady(j)
		switch j.Stealer.OnInterval(j.MainMisses, j.ShadowMisses, pause) {
		case steal.StealOne:
			r.planWaysDirty = true // the donor's way count changed
			r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.StealWay,
				Detail: int64(j.Stealer.Ways())})
		case steal.Rollback:
			r.planWaysDirty = true // stolen ways returned to the donor
			r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.RollbackSteal,
				Detail: int64(j.Stealer.Ways())})
		}
	}
}

// Core-assignment stage of the policy pipeline: the Scheduler
// implementations and the timed job-state transitions that feed
// them.
package sim

import (
	"math/bits"

	"cmpqos/internal/qos"
	"cmpqos/internal/steal"
	"cmpqos/internal/trace"
)

// startJobs moves waiting jobs whose start time has come into the
// running state.
func (r *Runner) startJobs() {
	for _, j := range r.accepted {
		if j.State != StateWaiting || j.StartAt > r.now {
			continue
		}
		j.State = StateRunning
		j.Started = r.now
		if !j.started {
			j.started, j.firstStart = true, r.now
		}
		if j.Mode.Kind == qos.KindElastic && !r.cfg.DisableStealing {
			ways := int(j.WaysReserved)
			j.Stealer = steal.New(j.Mode.Slack, ways, 1)
			// Curve lookups at the fixed original allocation, reused by
			// the shadow-baseline accounting every epoch.
			j.mpifRes = j.Profile.MPIF(float64(ways))
			j.mpiRes = j.Profile.MPI(ways)
		}
		r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.Started})
		if j.AutoDowngraded {
			r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.Downgraded})
		}
	}
}

// switchBacks reverts auto-downgraded jobs to the Strict mode when their
// reserved timeslot begins.
func (r *Runner) switchBacks() {
	for _, j := range r.accepted {
		if j.State == StateRunning && j.AutoDowngraded && !j.switched && r.now >= j.SwitchBack {
			j.switched = true
			j.switchedAt = r.now
			r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.SwitchedBack})
		}
	}
}

// reservedScheduler pins jobs to cores under admission control: one
// reserved job per core; Opportunistic jobs share the cores free of
// reserved jobs (§5), balanced by load — or, with packOpp, packed onto
// the lowest-indexed free core up to the per-core pin cap, keeping the
// remaining free cores idle (and their L2 pressure low) for the next
// reserved arrival.
//
// It keeps no list between its passes: each job list of the placement
// (reserved jobs needing a core, opportunistic jobs needing one) is a
// later pass over r.accepted, in acceptance order, picking the jobs an
// earlier pass marked with Core = -1; per-core state lives on the stack
// (Config.Validate caps Cores at 64). The list-based scheduler it
// replaced is its test oracle (schedule_oracle_test.go).
type reservedScheduler struct {
	packOpp bool
}

func (s reservedScheduler) Assign(r *Runner) [][]*Job {
	cores := r.cfg.Cores
	var reservedOn [64]*Job
	// Reserved jobs keep a healthy core of their own; the rest need one.
	for _, j := range r.accepted {
		if !j.ReservedRunning(r.now) {
			continue
		}
		if j.Core >= 0 && !r.isDown(int(j.Core)) && reservedOn[j.Core] == nil {
			reservedOn[j.Core] = j
		} else {
			j.Core = -1
		}
	}
	for _, j := range r.accepted {
		if j.Core >= 0 || !j.ReservedRunning(r.now) {
			continue
		}
		for c := 0; c < cores; c++ {
			if reservedOn[c] == nil && !r.isDown(c) {
				reservedOn[c] = j
				j.Core = int32(c)
				r.model.jobStarted(j)
				break
			}
		}
		// Not placed: the LAC's reservation accounting should make this
		// impossible; the job stalls for the epoch with Core -1.
	}
	// Opportunistic jobs: only on cores without reserved jobs.
	var free uint64
	for c := 0; c < cores; c++ {
		if reservedOn[c] == nil && !r.isDown(c) {
			free |= 1 << c
		}
	}
	var load [64]int
	for _, j := range r.accepted {
		if j.State != StateRunning || j.ReservedRunning(r.now) {
			continue
		}
		if j.Core >= 0 && free&(1<<j.Core) != 0 {
			load[j.Core]++
		} else {
			j.Core = -1
		}
	}
	if free != 0 {
		for _, j := range r.accepted {
			if j.State != StateRunning || j.Core >= 0 || j.ReservedRunning(r.now) {
				continue
			}
			best := s.pick(free, &load)
			j.Core = int32(best)
			load[best]++
			r.model.jobStarted(j)
		}
	}
	// With no free core every unplaced opportunistic job stalls: every
	// healthy core hosts a reserved job.
	return r.fillByCore()
}

// pick chooses a free core for one opportunistic job: the least loaded
// (lowest index on ties), or with packOpp the first below the pin cap,
// spilling to the least loaded once every free core is at the cap.
func (s reservedScheduler) pick(free uint64, load *[64]int) int {
	if s.packOpp {
		for m := free; m != 0; m &= m - 1 {
			if c := bits.TrailingZeros64(m); load[c] < qos.OpportunisticPerCore {
				return c
			}
		}
	}
	best := bits.TrailingZeros64(free)
	for m := free; m != 0; m &= m - 1 {
		if c := bits.TrailingZeros64(m); load[c] < load[best] {
			best = c
		}
	}
	return best
}

// sharedScheduler balances all running jobs across all cores, modelling
// the default OS scheduler of the admissionless baselines (EqualPart,
// UCP-Part).
type sharedScheduler struct{}

func (sharedScheduler) Assign(r *Runner) [][]*Job {
	var load [64]int
	for c := 0; c < r.cfg.Cores; c++ {
		if r.isDown(c) {
			// A failed core never wins the min-load pick; injection
			// displaced whatever ran there.
			load[c] = 1 << 30
		}
	}
	for _, j := range r.accepted {
		if j.State == StateRunning && j.Core >= 0 {
			load[j.Core]++
		}
	}
	for _, j := range r.accepted {
		if j.State != StateRunning || j.Core >= 0 {
			continue
		}
		c := minIndex(load[:r.cfg.Cores])
		j.Core = int32(c)
		load[c]++
		r.model.jobStarted(j)
	}
	return r.fillByCore()
}

// fillByCore rebuilds the plan's per-core lists from the running jobs'
// cores, in acceptance order; a stalled job (Core -1) is in none.
func (r *Runner) fillByCore() [][]*Job {
	byCore := r.byCore
	for c := range byCore {
		byCore[c] = byCore[c][:0]
	}
	for _, j := range r.accepted {
		if j.State == StateRunning && j.Core >= 0 {
			byCore[j.Core] = append(byCore[j.Core], j)
		}
	}
	return byCore
}

// Core-assignment stage of the policy pipeline: the Scheduler
// implementations and the timed job-state transitions that feed
// them.
package sim

import (
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
type reservedScheduler struct {
	packOpp bool
}

func (s *reservedScheduler) Assign(r *Runner) [][]*Job {
	byCore := r.sc.byCore
	for c := range byCore {
		byCore[c] = byCore[c][:0]
	}
	reservedOn := r.sc.reservedOn
	for i := range reservedOn {
		reservedOn[i] = nil
	}
	needCore := r.sc.needCore[:0]
	opps := r.sc.opps[:0]
	for _, j := range r.accepted {
		if j.State != StateRunning {
			continue
		}
		if j.ReservedRunning(r.now) {
			if j.Core >= 0 && !r.coreDown[j.Core] && reservedOn[j.Core] == nil {
				reservedOn[j.Core] = j
			} else {
				j.Core = -1
				needCore = append(needCore, j)
			}
		} else {
			opps = append(opps, j)
		}
	}
	for _, j := range needCore {
		placed := false
		for c := 0; c < r.cfg.Cores; c++ {
			if reservedOn[c] == nil && !r.coreDown[c] {
				reservedOn[c] = j
				j.Core = int32(c)
				placed = true
				r.model.jobStarted(j)
				break
			}
		}
		if !placed {
			// The LAC's reservation accounting should make this
			// impossible; stall the job for an epoch if it happens.
			j.Core = -1
		}
	}
	// Opportunistic jobs: only on cores without reserved jobs.
	load := r.sc.load
	for i := range load {
		load[i] = 0
	}
	freeCores := r.sc.freeCores[:0]
	for c := 0; c < r.cfg.Cores; c++ {
		if reservedOn[c] == nil && !r.coreDown[c] {
			freeCores = append(freeCores, c)
		}
	}
	oppUnplaced := r.sc.unplaced[:0]
	for _, j := range opps {
		if j.Core >= 0 && !r.coreDown[j.Core] && reservedOn[j.Core] == nil {
			load[j.Core]++
		} else {
			j.Core = -1
			oppUnplaced = append(oppUnplaced, j)
		}
	}
	for _, j := range oppUnplaced {
		if len(freeCores) == 0 {
			continue // stall: every core hosts a reserved job
		}
		best := freeCores[0]
		if s.packOpp {
			// First free core with pin-cap room; the min-load pick below
			// is the spill path once every free core is at the cap.
			packed := false
			for _, c := range freeCores {
				if load[c] < qos.OpportunisticPerCore {
					best, packed = c, true
					break
				}
			}
			if !packed {
				for _, c := range freeCores {
					if load[c] < load[best] {
						best = c
					}
				}
			}
		} else {
			for _, c := range freeCores {
				if load[c] < load[best] {
					best = c
				}
			}
		}
		j.Core = int32(best)
		load[best]++
		r.model.jobStarted(j)
	}
	r.sc.needCore = needCore
	r.sc.opps = opps
	r.sc.freeCores = freeCores
	r.sc.unplaced = oppUnplaced
	for _, j := range r.accepted {
		if j.State == StateRunning && j.Core >= 0 {
			byCore[j.Core] = append(byCore[j.Core], j)
		}
	}
	return byCore
}

// sharedScheduler balances all running jobs across all cores, modelling
// the default OS scheduler of the admissionless baselines (EqualPart,
// UCP-Part).
type sharedScheduler struct{}

func (sharedScheduler) Assign(r *Runner) [][]*Job {
	byCore := r.sc.byCore
	for c := range byCore {
		byCore[c] = byCore[c][:0]
	}
	load := r.sc.load
	for i := range load {
		load[i] = 0
		if r.coreDown[i] {
			// A failed core never wins the min-load pick; injection
			// displaced whatever ran there.
			load[i] = 1 << 30
		}
	}
	unplaced := r.sc.unplaced[:0]
	for _, j := range r.accepted {
		if j.State != StateRunning {
			continue
		}
		if j.Core >= 0 {
			load[j.Core]++
		} else {
			unplaced = append(unplaced, j)
		}
	}
	for _, j := range unplaced {
		c := minIndex(load)
		j.Core = int32(c)
		load[c]++
		r.model.jobStarted(j)
	}
	r.sc.unplaced = unplaced
	for _, j := range r.accepted {
		if j.State == StateRunning {
			byCore[j.Core] = append(byCore[j.Core], j)
		}
	}
	return byCore
}

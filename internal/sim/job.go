package sim

import (
	"fmt"

	"cmpqos/internal/qos"
	"cmpqos/internal/steal"
	"cmpqos/internal/workload"
)

// JobState is the lifecycle stage of a job inside the simulator.
type JobState uint8

const (
	// StateWaiting: accepted, waiting for its reserved timeslot.
	StateWaiting JobState = iota
	// StateRunning: executing on a core.
	StateRunning
	// StateDone: completed.
	StateDone
	// StateRejected: admission control refused the job.
	StateRejected
	// StateTerminated: the job exceeded its reserved wall-clock budget
	// and was killed by the enforcement policy.
	StateTerminated
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateRejected:
		return "rejected"
	case StateTerminated:
		return "terminated"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Job is one unit of aperiodic computation with its own QoS target
// (§3.1): here, one instance of a single-threaded benchmark. One is
// allocated per accepted job: 240 bytes, the 240-byte size class
// (TestJobAndRunnerSize). What depends only on the template (the
// profile's useful ways, the mode a hint asks for) lives in the node's
// template table, and the narrow fields share the last three words.
type Job struct {
	ID      int
	Profile *jobProfile // into the node's template table: shared, read-only
	Mode    qos.Mode

	// Timeslot parameters (cycles).
	Arrival  int64
	TW       int64 // maximum wall-clock time
	Deadline int64 // absolute

	// Outcome.
	StartAt   int64 // when the job becomes eligible to run
	Started   int64
	Completed int64
	// The rest of the job's Figure-7 lane (Report.Lanes; the others are
	// Completed, Deadline, AutoDowngraded and MetDeadline), written where
	// the Started and SwitchedBack events are emitted.
	firstStart int64 // Started is overwritten when a fault suspends and restarts the job
	switchedAt int64 // cycle of the last switch-back, 0 = never

	// Execution progress.
	InstrTotal int64
	InstrDone  int64

	WaysF float64 // effective ways this epoch (fractional for shared pools)

	// Automatic downgrade state (§3.4); the flags are below.
	SwitchBack    int64 // cycle at which the job reverts to Strict
	ReservationID int

	// Resource stealing (Elastic jobs only).
	Stealer        *steal.Controller
	instrLastSteal int64
	// Cumulative miss counts for the stealing guard and the Figure 8
	// metrics: with stealing (main) and without (shadow/baseline).
	MainMisses   int64
	ShadowMisses int64
	// Cycle accounting for the CPI-increase metric: actual cycles spent
	// vs the cycles the job would have spent at its original allocation.
	ActualCycles   int64
	BaselineCycles float64

	// Memoized miss-curve lookups for the per-epoch advance: the curve is
	// fixed per job and WaysF changes only when the epoch plan is rebuilt,
	// so the table engine reuses the exact bits of one MPIF/MPI call
	// instead of re-interpolating every epoch.
	mpifCur float64 // Profile.MPIF(WaysF), refreshed by setWaysF
	mpifRes float64 // Profile.MPIF(WaysReserved), set at Stealer creation
	mpiRes  float64 // Profile.MPI(WaysReserved), set at Stealer creation

	tr *traceState // allocated by the trace engine when the job first runs

	// The narrow fields, together so they pack into the last three words.
	Core         int32 // -1 when unassigned
	WaysReserved int32 // the RUM request (0 for opportunistic)
	// ctrlBoost is the feedback controller's standing way grant on top
	// of the negotiated envelope, satisfied from the epoch's idle way
	// pool (applyCtrlBoosts). Always ≥ 0: the controller can only add
	// ways above the reservation, never shrink below it.
	ctrlBoost      int32
	DlClass        workload.DeadlineClass
	State          JobState
	AutoDowngraded bool
	switched       bool // auto-downgraded job has reverted to Strict
	started        bool // the job has run: firstStart is set
}

// jobProfile is a template's resolved profile with what the node
// derives from the profile alone, computed once when the template table
// is built (buildTwTable) and read-only after.
type jobProfile struct {
	workload.Profile
	usefulW float64 // usefulWays(Profile), for internal fragmentation
}

// traceState is a job's trace-engine state.
type traceState struct {
	stream        *workload.Stream
	lastMissRatio float64
	writeLCG      uint64 // deterministic store/load decision stream
}

// nextWrite decides whether the next trace access is a store, using a
// cheap per-job LCG so the stream is deterministic and independent of
// the address generator.
func (j *Job) nextWrite() bool {
	t := j.tr
	if t.writeLCG == 0 {
		t.writeLCG = uint64(j.ID)*2862933555777941757 + 3037000493
	}
	t.writeLCG = t.writeLCG*6364136223846793005 + 1442695040888963407
	return float64(t.writeLCG>>40)/float64(1<<24) < workload.WriteFraction
}

// setWaysF sets the job's effective way allocation for the epoch and
// refreshes the memoized curve lookup at that allocation. All WaysF
// writes go through here so mpifCur can never go stale.
func (j *Job) setWaysF(w float64) {
	j.WaysF = w
	j.mpifCur = j.Profile.MPIF(w)
}

// SetCtrlBoost sets the controller's standing way grant for this job
// (≥ 0 — boosts only ever add ways above the negotiated envelope).
// Controllers call it from Tick; the grant applies from the next way
// split until retuned or the job finishes.
func (j *Job) SetCtrlBoost(ways int) {
	j.ctrlBoost = int32(ways)
}

// CtrlBoost returns the controller's current way grant for this job.
func (j *Job) CtrlBoost() int { return int(j.ctrlBoost) }

// ReservedRunning reports whether the job currently executes with
// reserved resources (Strict/Elastic, or an auto-downgraded job after
// its switch-back).
func (j *Job) ReservedRunning(now int64) bool {
	if j.State != StateRunning {
		return false
	}
	if j.Mode.Kind == qos.KindOpportunistic {
		return false
	}
	if j.AutoDowngraded && now < j.SwitchBack {
		return false
	}
	return true
}

// budgetEnd returns the cycle at which a reserved-running job's
// wall-clock budget runs out: started + tw for Strict, started +
// tw·(1+X) for Elastic, and the deadline for auto-downgraded jobs (whose
// reservation ends there).
func (j *Job) budgetEnd() int64 {
	switch {
	case j.AutoDowngraded:
		return j.Deadline
	case j.Mode.Kind == qos.KindElastic:
		return j.Started + j.Mode.ReservationLength(j.TW)
	default:
		return j.Started + j.TW
	}
}

// Remaining returns instructions left to retire.
func (j *Job) Remaining() int64 { return j.InstrTotal - j.InstrDone }

// WallClock returns the job's execution duration, valid once done.
func (j *Job) WallClock() int64 { return j.Completed - j.Started }

// MetDeadline reports whether the job completed by its deadline (jobs
// without deadlines trivially meet them).
func (j *Job) MetDeadline() bool {
	return j.Deadline == 0 || j.Completed <= j.Deadline
}

// MissIncrease returns the job's relative cumulative miss increase due
// to stealing, the Figure 8(a) metric.
func (j *Job) MissIncrease() float64 {
	return steal.ExcessMissRatio(j.MainMisses, j.ShadowMisses)
}

// CPIIncrease returns the job's relative CPI increase versus running at
// its original allocation throughout.
func (j *Job) CPIIncrease() float64 {
	if j.BaselineCycles <= 0 {
		return 0
	}
	return float64(j.ActualCycles)/j.BaselineCycles - 1
}

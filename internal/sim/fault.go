package sim

import (
	"cmpqos/internal/fault"
	"cmpqos/internal/qos"
	"cmpqos/internal/steal"
	"cmpqos/internal/trace"
)

// faultPoint is one scheduled capacity transition: the injection of a
// fault event or its recovery. Points are pre-sorted at construction, so
// the per-epoch check is a single index comparison.
type faultPoint struct {
	at      int64
	recover bool
	ev      fault.Event
}

// faultState is a Runner's fault-plan state: the transition list and
// its cursor, what is down, the active latency spikes, the run's
// degradation record, and refit scratch. A run without a fault plan
// has none; the readers below answer zero for it. (They never hand out
// a shared zero value: the nodes of a fleet step on concurrent workers.)
type faultState struct {
	pts       []faultPoint
	pos       int
	downCores int
	waysDown  int
	latActive []float64
	stats     FaultStats
	refitIDs  []int // refitReservations scratch, reused across faults
}

// downCores returns how many cores are failed right now.
func (r *Runner) downCores() int {
	if r.faults == nil {
		return 0
	}
	return r.faults.downCores
}

// isDown reports whether core c is failed right now.
func (r *Runner) isDown(c int) bool { return r.coreDown&(1<<c) != 0 }

// waysDown returns how many cache ways are dark right now.
func (r *Runner) waysDown() int {
	if r.faults == nil {
		return 0
	}
	return r.faults.waysDown
}

// faultsPending reports whether a fault transition is still to fire.
func (r *Runner) faultsPending() bool {
	return r.faults != nil && r.faults.pos < len(r.faults.pts)
}

// faultStats returns the run's degradation record so far.
func (r *Runner) faultStats() FaultStats {
	if r.faults == nil {
		return FaultStats{}
	}
	return r.faults.stats
}

// buildFaultPoints expands the config's plan into the ordered transition
// list. Events are normalized first (canonical order), then recoveries
// are sequenced before injections at the same cycle so capacity freed by
// a recovery is visible to a simultaneous fault's refit.
func buildFaultPoints(p fault.Plan) []faultPoint {
	if p.Empty() {
		return nil
	}
	n := p.Normalized()
	pts := make([]faultPoint, 0, 2*len(n.Events))
	for _, e := range n.Events {
		pts = append(pts, faultPoint{at: e.At, ev: e})
		if e.Duration > 0 {
			pts = append(pts, faultPoint{at: e.End(), recover: true, ev: e})
		}
	}
	// Stable sort keeps the normalized order within each (at, recover)
	// class, so the application order is canonical too.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && faultPointLess(pts[j], pts[j-1]); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	return pts
}

func faultPointLess(a, b faultPoint) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.recover && !b.recover
}

// FaultStats aggregates one run's degradation record.
type FaultStats struct {
	CoreFails     int
	CoreRecovers  int
	WayFaults     int
	WayRecovers   int
	LatencySpikes int
	// Evictions counts reservations pushed off the shrunken timeline.
	Evictions int
	// Readmitted counts evicted jobs the LAC re-placed (including the
	// auto-downgraded ones).
	Readmitted int
	// AutoDowngrades counts forced §3.4 downgrades during refit: the
	// evicted Strict job no longer fit earliest-first, but a latest-fit
	// reservation before its deadline still did.
	AutoDowngrades int
	// Violations counts jobs the framework could not keep after a fault:
	// terminated with a recorded QoS violation.
	Violations int
	// WaysShed counts elastic reservation ways surrendered to dark-way
	// faults through the stealing controller's shed path.
	WaysShed int
	// MissesInFaultWindows counts deadline misses (and violations) of
	// jobs whose lifetime overlapped an active fault — the "attributable
	// to faults" slice of the degradation metrics.
	MissesInFaultWindows int
}

// Faulted reports whether any fault actually fired.
func (s FaultStats) Faulted() bool {
	return s.CoreFails+s.WayFaults+s.LatencySpikes > 0
}

// applyFaults fires every fault transition scheduled before epochEnd.
// It runs at the top of the epoch, before arrivals, so admission and
// the epoch plan see the post-fault capacity; every transition is a QoS
// event and invalidates the cached plan.
func (r *Runner) applyFaults(epochEnd int64) {
	f := r.faults
	for r.faultsPending() && f.pts[f.pos].at < epochEnd {
		pt := f.pts[f.pos]
		f.pos++
		if pt.recover {
			r.recoverFault(pt.ev)
		} else {
			r.injectFault(pt.ev)
		}
		r.planOK = false
	}
}

func (r *Runner) injectFault(ev fault.Event) {
	f := r.faults
	switch ev.Kind {
	case fault.CoreFail:
		f.stats.CoreFails++
		r.coreDown |= 1 << ev.Core
		f.downCores++
		r.emit(trace.Event{Cycle: r.now, JobID: -1, Kind: trace.CoreFail,
			Detail: int64(ev.Core)})
		// Displace whatever was running there; assignCores re-places
		// reserved jobs on surviving cores and stalls the rest.
		for _, j := range r.accepted {
			if j.State == StateRunning && int(j.Core) == ev.Core {
				j.Core = -1
			}
		}
		r.refitReservations()
	case fault.WayFault:
		f.stats.WayFaults++
		f.waysDown += ev.Ways
		r.emit(trace.Event{Cycle: r.now, JobID: -1, Kind: trace.WayFault,
			Detail: int64(f.waysDown)})
		r.shedElastic()
		r.refitReservations()
	case fault.LatencySpike:
		f.stats.LatencySpikes++
		f.latActive = append(f.latActive, ev.Factor)
		r.refreshLatFactor()
		r.emit(trace.Event{Cycle: r.now, JobID: -1, Kind: trace.LatencySpike,
			Detail: int64(ev.Factor * 1000)})
	}
}

func (r *Runner) recoverFault(ev fault.Event) {
	f := r.faults
	switch ev.Kind {
	case fault.CoreFail:
		f.stats.CoreRecovers++
		r.coreDown &^= 1 << ev.Core
		f.downCores--
		r.emit(trace.Event{Cycle: r.now, JobID: -1, Kind: trace.CoreRecover,
			Detail: int64(ev.Core)})
		r.refitReservations() // growth: re-admits capacity, evicts nothing
	case fault.WayFault:
		f.stats.WayRecovers++
		f.waysDown -= ev.Ways
		r.emit(trace.Event{Cycle: r.now, JobID: -1, Kind: trace.WayRecover,
			Detail: int64(f.waysDown)})
		r.refitReservations()
	case fault.LatencySpike:
		for i, x := range f.latActive {
			if x == ev.Factor {
				f.latActive = append(f.latActive[:i], f.latActive[i+1:]...)
				break
			}
		}
		r.refreshLatFactor()
		r.emit(trace.Event{Cycle: r.now, JobID: -1, Kind: trace.LatencySpike,
			Detail: int64(r.latFactor * 1000)})
	}
}

// refreshLatFactor recomputes the effective penalty multiplier: the
// worst of the currently active spikes (they model the same shared
// memory path, so they do not compound).
func (r *Runner) refreshLatFactor() {
	r.latFactor = 1.0
	for _, f := range r.faults.latActive {
		if f > r.latFactor {
			r.latFactor = f
		}
	}
}

// faultCapacity is the node's current capacity vector net of faults.
func (r *Runner) faultCapacity() qos.ResourceVector {
	return qos.ResourceVector{
		Cores:     r.cfg.Cores - r.downCores(),
		CacheWays: r.cfg.L2.Ways - r.waysDown(),
	}
}

// refitReservations repairs the reservation timeline after a capacity
// change: the LAC re-runs its accounting over the shrunken (or regrown)
// vector, and every evicted job is re-negotiated — earliest-fit first,
// then the forced §3.4 auto-downgrade, and finally termination with a
// recorded QoS violation when nothing before the deadline fits.
func (r *Runner) refitReservations() {
	if r.lac == nil {
		return
	}
	evicted := r.lac.SetCapacity(r.faultCapacity(), r.now)
	if len(evicted) == 0 {
		return
	}
	// One readmission per distinct job, in admission (ID) order so the
	// earliest-admitted evictee gets first pick of the remaining slots.
	// Sort-then-dedup on a reused scratch slice keeps a fault storm from
	// allocating a fresh map per transition.
	ids := r.faults.refitIDs[:0]
	for _, res := range evicted {
		ids = append(ids, res.JobID)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			uniq = append(uniq, id)
		}
	}
	ids = uniq
	r.faults.refitIDs = ids[:0]
	for _, id := range ids {
		for _, j := range r.accepted {
			if j.ID == id {
				r.faults.stats.Evictions++
				r.readmit(j)
				break
			}
		}
	}
}

// readmit re-negotiates one evicted job against the post-fault timeline
// through the shared admission ladder (negotiate, in admit.go): the
// job's pre-fault width first, then progressively narrower widths, then
// the forced §3.4 auto-downgrade over the same widths, and finally
// terminates with a recorded QoS violation.
//
// The evicted job is live (a finished job's reservation left the
// timeline at LAC.Complete) and maxWays is at least 1: a reservation
// holds a way, and Plan.Validate keeps one way lit.
func (r *Runner) readmit(j *Job) {
	j.ReservationID = 0
	maxWays := min(int(j.WaysReserved), r.faultCapacity().CacheWays)
	// Admission headroom is a brake on new work, not on rescue: suspend
	// it for the refit ladder, or a controller tightening admission
	// during a storm would turn renegotiations into violations.
	if r.lac.Headroom() > 0 {
		saved := r.lac.Headroom()
		r.lac.SetHeadroom(0)
		defer r.lac.SetHeadroom(saved)
	}
	dec, ways, tw := r.negotiate(j, maxWays)
	if !dec.Accepted {
		r.violate(j)
		return
	}
	r.faults.stats.Readmitted++
	j.ReservationID = dec.ReservationID
	j.WaysReserved = int32(ways)
	j.TW = tw // the renegotiated budget the slot was sized for
	if j.Stealer != nil {
		// The reservation shrank (or moved); rebase the controller and
		// the baseline curve lookups on what the job now actually holds.
		j.Stealer = steal.New(j.Mode.Slack, ways, 1)
		j.mpifRes = j.Profile.MPIF(float64(ways))
		j.mpiRes = j.Profile.MPI(ways)
	}
	switch {
	case dec.AutoDowngraded:
		// Forced §3.4: run opportunistically now, switch back when the
		// latest-fit slot begins.
		r.faults.stats.AutoDowngrades++
		wasWaiting := j.State == StateWaiting
		j.AutoDowngraded = true
		j.SwitchBack = dec.SwitchBack
		j.switched = false
		j.StartAt = r.now
		r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.AutoDowngrade,
			Detail: dec.SwitchBack})
		if wasWaiting {
			return // startJobs records Started/Downgraded as usual
		}
		r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.Downgraded})
	case dec.Start > r.now:
		// The remaining work fits, but only later: suspend until the new
		// slot opens (waiting jobs just move their start).
		j.StartAt = dec.Start
		j.State = StateWaiting
		j.Core = -1
	default:
		j.StartAt = dec.Start
	}
}

// violate terminates a job the framework cannot carry through the fault,
// recording the QoS violation the degradation metrics count.
func (r *Runner) violate(j *Job) {
	r.faults.stats.Violations++
	r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.QoSViolation})
	r.emit(trace.Event{Cycle: r.now, JobID: j.ID, Kind: trace.Terminated})
	j.State = StateTerminated
	j.Completed = r.now
	j.Core = -1
	j.ctrlBoost = 0
	r.doneN++
	r.lac.Complete(j.ID, j.Mode, r.now)
	if r.fold != nil {
		// Stream the outcome like every other finished job: without this
		// fold, FoldCompleted compaction dropped fault violations from
		// the per-node aggregates, and the cluster fleet table's
		// violation counts under-reported storms.
		r.foldJob(j)
	}
}

// shedElastic sheds reservation ways from running Elastic jobs until the
// reserved usage fits under the darkened cache — the graceful path that
// spares whole reservations from eviction. Victims are the widest
// stealing allocations first (lowest ID on ties), one way at a time.
func (r *Runner) shedElastic() {
	if r.lac == nil {
		return
	}
	need := r.lac.Timeline().UsageAt(r.now).CacheWays - r.faultCapacity().CacheWays
	for need > 0 {
		var pick *Job
		for _, j := range r.accepted {
			if j.State != StateRunning || j.Stealer == nil || j.ReservationID == 0 {
				continue
			}
			if j.Stealer.Ways() <= 1 {
				continue
			}
			if pick == nil || j.Stealer.Ways() > pick.Stealer.Ways() ||
				(j.Stealer.Ways() == pick.Stealer.Ways() && j.ID < pick.ID) {
				pick = j
			}
		}
		if pick == nil {
			return
		}
		// pick holds more than one way and never more than its original
		// allocation, whose floor is 1: Shed(1) sheds one.
		pick.Stealer.Shed(1)
		pick.WaysReserved--
		r.lac.ShrinkReservation(pick.ID,
			qos.ResourceVector{Cores: 1, CacheWays: int(pick.WaysReserved)})
		r.faults.stats.WaysShed++
		r.planWaysDirty = true
		r.emit(trace.Event{Cycle: r.now, JobID: pick.ID, Kind: trace.StealWay,
			Detail: int64(pick.Stealer.Ways())})
		need--
	}
}

// missInFaultWindow reports whether the job's lifetime overlapped any
// event of the plan while that event was active.
func missInFaultWindow(j JobResult, plan fault.Plan) bool {
	end := j.Completed
	if end == 0 {
		end = j.Deadline
	}
	for _, e := range plan.Events {
		if j.Arrival < e.End() && e.At <= end {
			return true
		}
	}
	return false
}

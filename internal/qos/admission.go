package qos

import "fmt"

// Request is a job's admission request: who is asking, for what
// resources, how strictly, and when.
type Request struct {
	JobID   int
	Target  Target
	Mode    Mode
	Arrival int64 // ta, cycles
}

// Decision is the admission controller's answer.
type Decision struct {
	Accepted bool
	// Start is when the job's reserved timeslot begins (reserved modes
	// only). For non-downgraded jobs this is also when the job should
	// start running.
	Start int64
	// ReservationID identifies the timeslot hold, 0 when none was made.
	ReservationID int
	// AutoDowngraded reports that a Strict job was transparently
	// downgraded: it runs Opportunistically from arrival and must switch
	// back to Strict at SwitchBack (= Start of its reservation) unless
	// it completes first (§3.4).
	AutoDowngraded bool
	SwitchBack     int64
	// Reason explains a rejection.
	Reason string
}

// LACOption configures a Local Admission Controller.
type LACOption func(*LAC)

// WithAutoDowngrade enables transparent automatic mode downgrade (§3.4):
// a Strict job whose deadline leaves room before a latest-fit timeslot
// runs Opportunistically until the slot begins. On its own it downgrades
// a job with any slack; WithAutoDowngradeMinSlack sets a floor. Table 2's
// All-Strict+AutoDown is the two together, with a floor of 0.5 (what the
// simulator passes; qosd -autodowngrade passes no floor).
func WithAutoDowngrade() LACOption {
	return func(l *LAC) { l.autoDowngrade = true }
}

// OpportunisticPerCore is how many Opportunistic jobs a LAC pins per
// core not assigned to reserved jobs (§5 allows several).
const OpportunisticPerCore = 4

// WithAutoDowngradeMinSlack sets the minimum relative deadline slack
// ((td−ta−tw)/tw) a Strict job must have before a LAC built
// WithAutoDowngrade downgrades it; without WithAutoDowngrade it does
// nothing. Table 2's All-Strict+AutoDown downgrades only jobs with
// moderate or relaxed deadlines, i.e. slack ≥ 0.5.
func WithAutoDowngradeMinSlack(frac float64) LACOption {
	return func(l *LAC) { l.minAutoSlack = frac }
}

// LAC is the per-CMP Local Admission Controller of §5: a user-level
// FCFS scheduler holding a reservation timeline over the node's core and
// cache-way capacity. Jobs are accepted only when their (convertible)
// QoS target fits a timeslot before their deadline; Opportunistic jobs
// are accepted whenever spare, unreserved capacity exists for them now.
type LAC struct {
	timeline      *Timeline
	autoDowngrade bool
	minAutoSlack  float64
	oppLive       int
	// resByJob maps a job to the node of the one reservation it holds
	// here: reserve runs once per committed admission, SetCapacity drops
	// an evicted node before the job is re-admitted, and Complete drops
	// the entry. It is the only map from a job or an id to a reservation
	// on the node. A node that Prune dropped stays, detached from the
	// timeline, until the job completes: the snapshot still writes its id,
	// and Complete and ShrinkReservation find it gone from the index.
	resByJob map[int]*resNode
	// headroomWays is the admission headroom a feedback controller can
	// set: extra cache ways a reserved-mode probe must find free on top
	// of its own demand, a brake on new work when the node is behind on
	// its promises. Zero (the default) leaves every decision identical
	// to a headroomless LAC. The committed reservation is always the
	// request's own vector — headroom inflates only the feasibility
	// probe, never what the job holds.
	headroomWays int
	// gen counts the changes that can move an earliest feasible start
	// EARLIER (Complete, SetCapacity, ShrinkReservation, SetHeadroom).
	// Admissions never do, so a cache of earliest starts (the GAC's
	// bounds table) stays a valid lower bound for as long as gen stands
	// still — however the change reached the LAC.
	gen uint64

	// Modeled controller occupancy (§7.5): the LAC is a user-level
	// program whose admission tests and scheduling cost cycles
	// proportional to the live reservation count.
	overheadCycles int64
	probes         int64
	admits         int64
	rejects        int64
}

// The modeled cost of one admission test (§7.5): a fixed part plus a
// part per live reservation the test reasons past.
const (
	probeBaseCycles  = 2000
	probePerResCycle = 200
)

// NewLAC builds a Local Admission Controller for a node with the given
// capacity (for the paper's node: 4 cores, 16 ways).
func NewLAC(capacity ResourceVector, opts ...LACOption) *LAC {
	l := &LAC{
		timeline: NewTimeline(capacity),
		resByJob: make(map[int]*resNode),
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Timeline exposes the reservation timeline for diagnostics and trace
// rendering.
func (l *LAC) Timeline() *Timeline { return l.timeline }

// SetHeadroom sets the admission headroom in cache ways (clamped to
// ≥ 0). Feedback controllers raise it to tighten admission while the
// node under-delivers on its promises and drop it back to zero when
// the node recovers.
func (l *LAC) SetHeadroom(ways int) {
	if ways < 0 {
		ways = 0
	}
	if ways != l.headroomWays {
		l.headroomWays = ways
		l.gen++
	}
}

// Gen returns the count of changes that can move an earliest feasible
// start earlier: a cache of starts learned while it stood still is
// still a valid lower bound.
func (l *LAC) Gen() uint64 { return l.gen }

// Headroom returns the current admission headroom in cache ways.
func (l *LAC) Headroom() int { return l.headroomWays }

// charge accrues the modeled controller occupancy for one admission test.
func (l *LAC) charge() {
	l.probes++
	l.overheadCycles += probeBaseCycles + probePerResCycle*int64(l.timeline.Len())
}

// BillRejection bills one admission test that its caller answered "no"
// without running: exactly what a rejected Admit bills. A caller may do
// that only from a lower bound on the request's earliest start learned
// on this LAC while Gen stood still (the simulator's own arrivals); it
// is the single-node counterpart of GAC.Commit billing the nodes its
// bounds pruned, and keeps Counters and OverheadCycles those of
// admitting every request.
func (l *LAC) BillRejection() {
	l.charge()
	l.rejects++
}

// OverheadCycles returns the cycles the modeled LAC has spent on
// admission tests and scheduling so far.
func (l *LAC) OverheadCycles() int64 { return l.overheadCycles }

// Occupancy returns the LAC's modeled occupancy as a fraction of the
// given wall-clock cycles (§7.5 reports < 1%).
func (l *LAC) Occupancy(wallClockCycles int64) float64 {
	if wallClockCycles <= 0 {
		return 0
	}
	return float64(l.overheadCycles) / float64(wallClockCycles)
}

// Counters returns (probes, admits, rejects) for characterization.
func (l *LAC) Counters() (probes, admits, rejects int64) {
	return l.probes, l.admits, l.rejects
}

// Probe answers whether a request could be accepted, without committing
// anything. The GAC uses this to locate a willing node.
func (l *LAC) Probe(req Request) Decision {
	return l.decide(req, false, true)
}

// Peek answers Probe's question without charging the modeled controller
// occupancy or touching any counter: the pure placement answer for this
// node's current timeline. Dispatch indexes (GAC.scan and the cluster
// simulator's dispatcher) use it to maintain per-node earliest-start bounds —
// bookkeeping lookups the real controller would not bill as admission
// tests, so they must not inflate the §7.5 occupancy model.
func (l *LAC) Peek(req Request) Decision {
	return l.decide(req, false, false)
}

// Admit runs the admission test and, on acceptance, commits the
// reservation (reserved modes) or registers the job (Opportunistic). A
// job holds one reservation per node: admitting a job again before
// Complete releases its reservation is a caller's fault and panics.
func (l *LAC) Admit(req Request) Decision {
	return l.decide(req, true, true)
}

// EarliestOpportunistic returns the earliest cycle ≥ ta at which an
// opportunistic admission could succeed given the current reservation
// schedule and live opportunistic population: the first instant enough
// cores are free of reserved work that one more opportunistic job fits
// under the per-core pin cap. ok is false when no such instant is on
// the schedule. The answer stays a valid lower bound under admissions
// of any kind (reservations only remove future capacity, opportunistic
// admissions only raise the cap's demand); it moves earlier only when
// an opportunistic job finishes or a reservation is evicted early, so
// callers caching it must invalidate on those events.
func (l *LAC) EarliestOpportunistic(ta int64) (start int64, ok bool) {
	need := l.oppLive/OpportunisticPerCore + 1
	if need > l.timeline.Capacity().Cores {
		return 0, false
	}
	return l.timeline.EarliestFit(ResourceVector{Cores: need}, ta, 1, 0)
}

func (l *LAC) decide(req Request, commit, charge bool) Decision {
	if charge {
		l.charge()
	}
	reject := func(reason string) Decision {
		if commit {
			l.rejects++
		}
		return Decision{Reason: reason}
	}
	if !req.Target.Convertible() {
		// §3.2: without convertibility there is no supply-vs-demand
		// comparison, hence no admission control, hence no QoS.
		return reject(ErrNotConvertible.Error())
	}
	rum, ok := asRUMRef(req.Target)
	if !ok {
		return reject("qos: convertible target must be a RUM")
	}
	if err := rum.Validate(req.Arrival); err != nil {
		return reject(err.Error())
	}
	vec := rum.Resources
	if !vec.Fits(l.timeline.Capacity()) {
		return reject(fmt.Sprintf("qos: demand %v exceeds node capacity %v",
			vec, l.timeline.Capacity()))
	}

	switch req.Mode.Kind {
	case KindOpportunistic:
		// Always accepted if there are spare resources not already
		// taken up by Strict/Elastic jobs: at least one core free of
		// reservations right now, with room under the per-core pin cap.
		avail := l.timeline.AvailableAt(req.Arrival)
		if avail.Cores < 1 {
			return reject("qos: no core free of reserved jobs for opportunistic work")
		}
		if l.oppLive >= avail.Cores*OpportunisticPerCore {
			return reject("qos: opportunistic pin cap reached")
		}
		if commit {
			l.oppLive++
			l.admits++
		}
		return Decision{Accepted: true, Start: req.Arrival}

	case KindStrict:
		if l.autoDowngrade && rum.HasTimeslot() && rum.Deadline != 0 {
			slack := float64((rum.Deadline-req.Arrival)-rum.MaxWallClock) / float64(rum.MaxWallClock)
			if _, ok := OpportunisticWindow(req.Arrival, rum.MaxWallClock, rum.Deadline); ok && slack >= l.minAutoSlack {
				// Automatic downgrade: reserve the timeslot as late as
				// possible before the deadline; the job runs
				// Opportunistically until the slot begins.
				if start, ok := l.timeline.LatestFit(vec, req.Arrival, rum.MaxWallClock, rum.Deadline); ok {
					d := Decision{Accepted: true, Start: start, AutoDowngraded: true, SwitchBack: start}
					if commit {
						d.ReservationID = l.reserve(req.JobID, vec, start, rum.MaxWallClock)
					}
					return d
				}
				return reject("qos: no timeslot for auto-downgraded job")
			}
		}
		return l.reserveSlot(req, vec, rum.MaxWallClock, rum.Deadline, commit)

	case KindElastic:
		dur := req.Mode.ReservationLength(rum.MaxWallClock)
		if dur == 0 {
			return reject("qos: elastic mode requires a timeslot resource")
		}
		return l.reserveSlot(req, vec, dur, rum.Deadline, commit)
	}
	return reject(fmt.Sprintf("qos: unknown mode %v", req.Mode))
}

// reserveSlot places a reservation earliest-fit (§5). Jobs without a
// timeslot resource (tw == 0) hold resources forever: the reservation is
// made effectively unbounded (§3.2).
func (l *LAC) reserveSlot(req Request, vec ResourceVector, dur, deadline int64, commit bool) Decision {
	if dur == 0 {
		dur = foreverCycles
	}
	start, ok := l.timeline.EarliestFit(l.probeVec(vec), req.Arrival, dur, deadline)
	if !ok {
		if commit {
			l.rejects++
		}
		return Decision{Reason: "qos: no feasible timeslot before deadline"}
	}
	d := Decision{Accepted: true, Start: start}
	if commit {
		d.ReservationID = l.reserve(req.JobID, vec, start, dur)
	}
	return d
}

// probeVec applies the admission headroom: the feasibility probe asks
// for extra ways on top of the demand (capped so a legal request can
// never exceed the node's capacity outright), but the reservation made
// is the original vector. With headroom 0 the result is vec and the
// decision is bit-identical to a headroomless LAC.
func (l *LAC) probeVec(vec ResourceVector) ResourceVector {
	if h := l.headroomWays; h > 0 {
		if m := l.timeline.Capacity().CacheWays - vec.CacheWays; h > m {
			h = m
		}
		vec.CacheWays += h
	}
	return vec
}

// PlacesEarliestFit reports whether every reserved-mode placement on
// this LAC is Timeline.EarliestFit — the precondition for caching lower
// bounds on its starts, since admissions then never move an earliest
// start earlier. A LAC built WithAutoDowngrade places some jobs
// latest-fit.
func (l *LAC) PlacesEarliestFit() bool { return !l.autoDowngrade }

// earliestStart is the uncharged placement question behind a reserved
// admission on a PlacesEarliestFit LAC: the first start ≥ ta where vec (plus
// headroom) fits for dur cycles, with no deadline. ok is false only when
// vec can never fit this node.
func (l *LAC) earliestStart(vec ResourceVector, ta, dur int64) (start int64, ok bool) {
	if !vec.Fits(l.timeline.Capacity()) {
		return 0, false
	}
	return l.timeline.EarliestFit(l.probeVec(vec), ta, dur, 0)
}

// foreverCycles stands in for an unbounded reservation; at 2 GHz it is
// about 52 days — far beyond any simulated horizon.
const foreverCycles = int64(1) << 53

func (l *LAC) reserve(jobID int, vec ResourceVector, start, dur int64) int {
	if held, ok := l.resByJob[jobID]; ok {
		panic(fmt.Sprintf("qos: job %d reserves again while it holds reservation %d", jobID, held.res.ID))
	}
	n := l.timeline.reserve(jobID, vec, start, dur)
	l.resByJob[jobID] = n
	l.admits++
	return n.res.ID
}

// held returns the live node of the job's reservation, nil when the job
// holds none or Prune has dropped it.
func (l *LAC) held(jobID int) *resNode {
	if n, ok := l.resByJob[jobID]; ok && l.timeline.idx.has(n) {
		return n
	}
	return nil
}

// SetCapacity tells the LAC its node's capacity changed at time now —
// the fault path. The timeline shrinks (or grows) and any reservations
// that no longer fit are evicted; their per-job bookkeeping is dropped
// here and the evictions are returned so the caller can re-admit,
// downgrade, or terminate the affected jobs.
func (l *LAC) SetCapacity(capacity ResourceVector, now int64) []Reservation {
	l.gen++
	evicted := l.timeline.SetCapacity(capacity, now)
	for _, ev := range evicted {
		if n, ok := l.resByJob[ev.JobID]; ok && n.res.ID == ev.ID {
			delete(l.resByJob, ev.JobID)
		}
	}
	return evicted
}

// AdmitAutoDowngrade is the forced §3.4 path used during fault
// recovery-admission: re-place an evicted Strict job's reservation as
// late as possible before its deadline, letting it run opportunistically
// until the slot begins. Unlike Admit, it does not require the
// WithAutoDowngrade policy or minimum slack — losing the original slot
// to a fault already justifies the downgrade.
func (l *LAC) AdmitAutoDowngrade(req Request) Decision {
	l.charge()
	rum, ok := asRUMRef(req.Target)
	if !ok || rum.Validate(req.Arrival) != nil || !rum.HasTimeslot() || rum.Deadline == 0 {
		l.rejects++
		return Decision{Reason: "qos: target not eligible for auto-downgrade"}
	}
	if _, ok := OpportunisticWindow(req.Arrival, rum.MaxWallClock, rum.Deadline); !ok {
		l.rejects++
		return Decision{Reason: "qos: no opportunistic window before the deadline"}
	}
	start, ok := l.timeline.LatestFit(rum.Resources, req.Arrival, rum.MaxWallClock, rum.Deadline)
	if !ok {
		l.rejects++
		return Decision{Reason: "qos: no timeslot for auto-downgraded job"}
	}
	d := Decision{Accepted: true, Start: start, AutoDowngraded: true, SwitchBack: start}
	d.ReservationID = l.reserve(req.JobID, rum.Resources, start, rum.MaxWallClock)
	return d
}

// ShrinkReservation shrinks the vector of the job's live reservation in
// place (elastic way-shedding under cache faults). It reports whether
// the job holds a live reservation here and the new vector is no larger
// than the old.
func (l *LAC) ShrinkReservation(jobID int, vec ResourceVector) bool {
	l.gen++
	n := l.held(jobID)
	return n != nil && l.timeline.shrink(n, vec)
}

// Complete tells the LAC a job finished at time now: its reservations
// are released (the §3.4 reclaim) so future jobs can be accepted
// earlier, and opportunistic bookkeeping is released. Ending each
// reservation at now and pruning would leave the same state: every one
// then ends by now, and the prune drops it.
func (l *LAC) Complete(jobID int, mode Mode, now int64) {
	l.gen++
	if mode.Kind == KindOpportunistic {
		if l.oppLive > 0 {
			l.oppLive--
		}
	}
	if n := l.held(jobID); n != nil {
		l.timeline.drop(n)
	}
	delete(l.resByJob, jobID)
	l.timeline.Prune(now)
}

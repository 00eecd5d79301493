// Sink stage of the policy pipeline: the consumers of a run. Two are
// built in and fed by step() — the fragmentation accounting and, when
// Config.RecordSeries is set, the telemetry series — and the Figure-7
// lanes ride on the Job rows (Report.Lanes). The full event log is not
// built in: it is an EventLog, attached with AddSink by the callers
// that read it.
package sim

import "cmpqos/internal/trace"

// Sink observes a run: Event delivers every trace event at the cycle it
// happens. Sinks must not mutate simulation state. Events only — the
// only events inside a fast-forwarded window are the rejected arrivals
// it admits, delivered in stepped order with their own cycles (DESIGN
// §11.1), so an attached sink sees the same stream whether or not
// epochs are skipped and never turns the skip off.
type Sink interface {
	Event(ev trace.Event)
}

// EventLog is the full event log as an attachable Sink: every
// Submitted/Rejected probe, every lifecycle and fault event, in the
// order they happen. Nothing on the default path keeps one — under the
// paper's arrival pressure ~95% of a run's events are rejected probes,
// and recording them cost 3.5× the bytes of the simulation itself
// (DESIGN §9) — so attach it only to read the log.
type EventLog struct{ trace.Recorder }

// Event records ev.
func (l *EventLog) Event(ev trace.Event) { l.Record(ev) }

// AddSink attaches an observer. Call before Run.
func (r *Runner) AddSink(s Sink) { r.sinks = append(r.sinks, s) }

// emit delivers one trace event to every attached sink; with none
// attached — the default pipeline — it is one length check, which is
// all a rejected probe costs here.
func (r *Runner) emit(ev trace.Event) {
	for _, s := range r.sinks {
		s.Event(ev)
	}
}

// fragDeltas computes one epoch's fragmentation contributions (§3.4).
// Internal fragmentation is a *reservation* concept: it counts
// reserved-but-unneeded capacity, so only cores running reserved jobs
// contribute, and EqualPart — which reserves nothing — reports zero by
// definition. A job's "useful" ways are where its miss curve's marginal
// benefit drops below 1% of its 1-way miss ratio; reserving beyond that
// is the capacity resource stealing recovers.
func (r *Runner) fragDeltas(byCore [][]*Job) (idleCores, idleWays, internal float64) {
	busyCores := 0
	usedWays := 0.0
	for _, jobs := range byCore {
		if len(jobs) == 0 {
			continue
		}
		busyCores++
		// Jobs timesharing a core share one partition: count the core's
		// allocation once (the widest job's share).
		coreWays, coreUseful := 0.0, 0.0
		reserved := false
		for _, j := range jobs {
			if j.WaysF > coreWays {
				coreWays = j.WaysF
			}
			if u := j.Profile.usefulW; u > coreUseful {
				coreUseful = u
			}
			if j.ReservedRunning(r.now) {
				reserved = true
			}
		}
		usedWays += coreWays
		if reserved && !r.cfg.Policy.noAdmission() && coreWays > coreUseful {
			internal += coreWays - coreUseful
		}
	}
	// Faulted resources are lost capacity, not fragmentation: they are
	// excluded from both idle pools.
	// No scheduler places a job on a down core while a live one exists,
	// and Plan.Validate keeps one core live: busyCores ≤ live cores.
	idleCores = float64(r.cfg.Cores - r.downCores() - busyCores)
	if idle := float64(r.cfg.L2.Ways-r.waysDown()) - usedWays; idle > 0 {
		idleWays = idle
	}
	return idleCores, idleWays, internal
}

// fragSink accumulates the fragmentation deltas (§3.4), in
// resource-epochs: step adds each stepped epoch's, applySteady and
// fastForwardIdle a skipped window's, in epoch order either way.
type fragSink struct {
	idleCores float64
	idleWays  float64
	internal  float64
}

// seriesStride is the telemetry sampling period in epochs.
const seriesStride = 16

// seriesSink samples the node's telemetry every seriesStride epochs. It
// keeps the runner to census job states and read the (just rolled) bus
// window — the per-epoch cost stays gated on Config.RecordSeries
// because the sink is only installed when that is set.
type seriesSink struct {
	r      *Runner
	series []SeriesSample
}

// sample takes the sample of the epoch that starts at cycle, if its
// index falls on the stride.
func (s *seriesSink) sample(cycle, epoch int64) {
	if epoch%seriesStride != 0 {
		return
	}
	if s.series == nil {
		// Sized for a typical run; longer runs grow from here instead of
		// from a 1-element slice.
		s.series = make([]SeriesSample, 0, 128)
	}
	r := s.r
	smp := SeriesSample{Cycle: cycle, BusUtil: r.bus.Utilization()}
	for _, j := range r.accepted {
		switch j.State {
		case StateRunning:
			smp.Running++
			if j.ReservedRunning(cycle) {
				smp.ReservedWays += int(j.WaysF)
			} else {
				smp.OppJobs++
			}
		case StateWaiting:
			smp.Waiting++
		}
	}
	s.series = append(s.series, smp)
}

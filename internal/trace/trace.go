// Package trace defines the job-lifecycle events of a simulation, the
// Recorder that logs them when a caller attaches one (sim.EventLog), and
// the execution timelines of paper Figure 7: one lane per accepted job,
// a solid box from start to completion, a dashed tail to the deadline,
// darker shading for periods spent automatically downgraded, and a
// marker at the switch-back point. The simulator keeps each job's lane
// on the job itself (sim.Report.Lanes); its tests hold that to the same
// fold over a recorded log.
package trace

import (
	"fmt"
	"strings"
)

// EventKind enumerates recorded events. The narrow underlying type
// keeps Event at 32 bytes: a paper-scale run emits one to three thousand
// of them, and an attached log stores every one.
type EventKind uint8

const (
	// Submitted: the job arrived and probed the admission controller.
	Submitted EventKind = iota
	// Accepted: the job passed admission (Start in the payload).
	Accepted
	// Rejected: admission failed.
	Rejected
	// Started: the job began executing.
	Started
	// Downgraded: the job was (automatically) downgraded and runs
	// opportunistically until switch-back.
	Downgraded
	// SwitchedBack: the auto-downgraded job reverted to Strict.
	SwitchedBack
	// StealWay: one way was stolen from the job.
	StealWay
	// RollbackSteal: stealing was canceled and ways returned.
	RollbackSteal
	// Completed: the job finished (DeadlineMet in the payload).
	Completed
	// Terminated: the job exceeded its maximum wall-clock budget and was
	// killed by the enforcement policy (§3.2: "a job may be terminated
	// if it runs longer than its maximum wall-clock time").
	Terminated
	// CoreFail: a fault took one core offline (Detail → core index).
	CoreFail
	// CoreRecover: a failed core came back (Detail → core index).
	CoreRecover
	// WayFault: a fault disabled cache ways (Detail → ways now dark).
	WayFault
	// WayRecover: faulted ways were restored (Detail → ways still dark).
	WayRecover
	// LatencySpike: the memory miss penalty was scaled (Detail →
	// factor in thousandths, so 2500 = x2.5).
	LatencySpike
	// AutoDowngrade: capacity loss forced a Strict job into the §3.4
	// automatic-downgrade path during fault recovery admission.
	AutoDowngrade
	// QoSViolation: the framework could not keep the job's contract
	// after a fault — it was terminated with a recorded violation.
	QoSViolation
)

// String names the event kind.
func (k EventKind) String() string {
	names := [...]string{"submitted", "accepted", "rejected", "started",
		"downgraded", "switched-back", "steal-way", "rollback-steal", "completed",
		"terminated", "core-fail", "core-recover", "way-fault", "way-recover",
		"latency-spike", "auto-downgrade", "qos-violation"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one recorded occurrence.
type Event struct {
	Cycle       int64
	Detail      int64 // kind-specific: Accepted → scheduled start; StealWay → new ways
	JobID       int
	Kind        EventKind
	DeadlineMet bool // Completed only
}

// Recorder accumulates events. The zero value is ready to use.
//
// Storage grows in place: events live in a list of fixed blocks, so an
// append never copies previously recorded events (a flat slice re-copies
// its whole history on every growth — measurable churn on long
// simulations that record hundreds of thousands of events).
type Recorder struct {
	blocks [][]Event
	n      int
}

const (
	recorderFirstBlock = 256
	recorderMaxBlock   = 16384
)

// Record appends an event.
func (r *Recorder) Record(e Event) {
	last := len(r.blocks) - 1
	if last < 0 || len(r.blocks[last]) == cap(r.blocks[last]) {
		size := recorderFirstBlock
		if last >= 0 {
			size = cap(r.blocks[last]) * 2
			if size > recorderMaxBlock {
				size = recorderMaxBlock
			}
		}
		r.blocks = append(r.blocks, make([]Event, 0, size))
		last++
	}
	r.blocks[last] = append(r.blocks[last], e)
	r.n++
}

// Events returns all events in recording order.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	for _, b := range r.blocks {
		out = append(out, b...)
	}
	return out
}

// Lane is one job's rendered interval set.
type Lane struct {
	JobID      int
	Start      int64 // execution start
	End        int64 // completion
	Deadline   int64
	SwitchBack int64 // 0 when never downgraded
	Downgraded bool
	Met        bool
}

// Gantt renders lanes as ASCII art, `width` characters across the busy
// time span. Legend: '=' running, '#' running while downgraded,
// '^' switch-back point, '.' slack until the deadline, '!' past-deadline
// completion marker.
func Gantt(lanes []Lane, width int) string {
	if len(lanes) == 0 {
		return "(no completed jobs)\n"
	}
	if width < 20 {
		width = 20
	}
	var lo, hi int64
	lo = lanes[0].Start
	for _, l := range lanes {
		if l.Start < lo {
			lo = l.Start
		}
		if l.End > hi {
			hi = l.End
		}
		if l.Deadline > hi {
			hi = l.Deadline
		}
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	// Every instant drawn lies in [lo, hi]: lo is the earliest start,
	// hi the latest end or deadline, and a switch-back precedes its
	// job's deadline. So every column is in [0, width-1].
	col := func(c int64) int { return int(float64(c-lo) / float64(span) * float64(width-1)) }
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d .. %d  (one column = %.3g cycles)\n", lo, hi, float64(span)/float64(width))
	for _, l := range lanes {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		cs, ce := col(l.Start), col(l.End)
		fill := byte('=')
		for i := cs; i <= ce; i++ {
			row[i] = fill
		}
		if l.Downgraded {
			// Darker shading while downgraded: from start to switch-back
			// (or the whole run when it never switched back).
			dEnd := ce
			if l.SwitchBack > 0 {
				dEnd = col(l.SwitchBack)
			}
			for i := cs; i <= dEnd && i < width; i++ {
				row[i] = '#'
			}
			if l.SwitchBack > 0 {
				row[col(l.SwitchBack)] = '^'
			}
		}
		if l.Deadline > l.End {
			for i := ce + 1; i <= col(l.Deadline); i++ {
				row[i] = '.'
			}
		}
		status := "met "
		if !l.Met {
			status = "MISS"
			row[ce] = '!'
		}
		fmt.Fprintf(&b, "job %4d %s |%s|\n", l.JobID, status, string(row))
	}
	b.WriteString("legend: = run  # downgraded  ^ switch-back  . slack-to-deadline  ! missed\n")
	return b.String()
}

// Package qos implements the paper's QoS framework — its primary
// contribution: convertible QoS target specification via Resource Usage
// Metrics (§3.2), the Strict/Elastic(X)/Opportunistic execution modes
// with manual and automatic mode downgrade (§3.3–3.4), the reservation
// timeline and the Local Admission Controller with FCFS earliest-fit
// admission (§5), and a Global Admission Controller spanning CMP nodes
// (§3.1).
//
// All times in this package are core-clock cycles (int64): ta is a job's
// arrival, tw its maximum wall-clock time, td its absolute deadline.
package qos

import (
	"errors"
	"fmt"
)

// ResourceVector encodes a quantity of CMP computation capacity: the
// basic resource allocation vector of §5. Cores and cache ways are the
// paper's focus. MemoryMB and BandwidthMBps implement the extension the
// paper leaves as future work ("a complete QoS target would include
// off-chip bandwidth rate, main memory size, …", §3.2): both dimensions
// are additive and comparable, so they participate in admission control
// exactly like cores and ways; zero values mean "not requested" /
// "not limited" and take part in no constraint.
type ResourceVector struct {
	Cores         int
	CacheWays     int
	MemoryMB      int
	BandwidthMBps int
}

// Add returns v + o.
func (v ResourceVector) Add(o ResourceVector) ResourceVector {
	return ResourceVector{
		Cores:         v.Cores + o.Cores,
		CacheWays:     v.CacheWays + o.CacheWays,
		MemoryMB:      v.MemoryMB + o.MemoryMB,
		BandwidthMBps: v.BandwidthMBps + o.BandwidthMBps,
	}
}

// Sub returns v − o.
func (v ResourceVector) Sub(o ResourceVector) ResourceVector {
	return ResourceVector{
		Cores:         v.Cores - o.Cores,
		CacheWays:     v.CacheWays - o.CacheWays,
		MemoryMB:      v.MemoryMB - o.MemoryMB,
		BandwidthMBps: v.BandwidthMBps - o.BandwidthMBps,
	}
}

// Fits reports whether v fits within capacity c (component-wise ≤). The
// optional dimensions constrain only when the capacity declares them:
// a node that does not model memory size (capacity 0) accepts any
// request's memory field, matching the paper's treatment of
// not-yet-managed resources.
func (v ResourceVector) Fits(c ResourceVector) bool {
	if v.Cores > c.Cores || v.CacheWays > c.CacheWays {
		return false
	}
	if c.MemoryMB > 0 && v.MemoryMB > c.MemoryMB {
		return false
	}
	if c.BandwidthMBps > 0 && v.BandwidthMBps > c.BandwidthMBps {
		return false
	}
	return true
}

// within reports whether every component of v lies in [0, o]'s: v
// takes nothing o did not, in any dimension, declared or not.
func (v ResourceVector) within(o ResourceVector) bool {
	return v.Valid() && v.Cores <= o.Cores && v.CacheWays <= o.CacheWays &&
		v.MemoryMB <= o.MemoryMB && v.BandwidthMBps <= o.BandwidthMBps
}

// IsZero reports whether the vector requests nothing.
func (v ResourceVector) IsZero() bool {
	return v.Cores == 0 && v.CacheWays == 0 && v.MemoryMB == 0 && v.BandwidthMBps == 0
}

// Valid reports whether the vector is non-negative.
func (v ResourceVector) Valid() bool {
	return v.Cores >= 0 && v.CacheWays >= 0 && v.MemoryMB >= 0 && v.BandwidthMBps >= 0
}

// String renders the vector compactly, eliding unrequested dimensions.
func (v ResourceVector) String() string {
	s := fmt.Sprintf("{cores:%d ways:%d", v.Cores, v.CacheWays)
	if v.MemoryMB > 0 {
		s += fmt.Sprintf(" mem:%dMB", v.MemoryMB)
	}
	if v.BandwidthMBps > 0 {
		s += fmt.Sprintf(" bw:%dMB/s", v.BandwidthMBps)
	}
	return s + "}"
}

// ErrNotConvertible is returned when a QoS target cannot be converted
// into units of computation capacity. Per Definition 1 and §3.2, a CMP
// can only fully provide QoS for convertible targets; OPM (IPC) and RPM
// (miss rate) targets are rejected with this error.
var ErrNotConvertible = errors.New("qos: target is not convertible to computation capacity")

// Target is a QoS target specification. Demand converts the target's
// units into units of computation capacity; only convertible targets can
// pass admission control.
type Target interface {
	// Convertible reports whether the target can be expressed as a
	// resource demand (Definition 1).
	Convertible() bool
	// Demand returns the computation-capacity demand, or
	// ErrNotConvertible for OPM/RPM targets.
	Demand() (ResourceVector, error)
}

// RUM is a Resource Usage Metrics target: the amount of resources the
// job needs, optionally bounded in time by a timeslot (maximum
// wall-clock time plus deadline). This is the specification the paper
// advocates: supply vs demand comparison is trivial.
type RUM struct {
	Resources ResourceVector
	// MaxWallClock is tw, in cycles: the longest the job should run
	// given all requested resources. Zero means no timeslot resource —
	// resources are then held for the job's entire lifetime (§3.2,
	// long-running jobs and daemons).
	MaxWallClock int64
	// Deadline is td, an absolute cycle timestamp by which the timeslot
	// must have completed. Zero means no deadline.
	Deadline int64
}

// AsRUM extracts the RUM from a target passed by value or by pointer.
// Hot callers (the simulator's admission path) pass *RUM so that one
// reusable value serves every probe instead of boxing a fresh copy into
// the Target interface per request; the LAC copies what it needs and
// never retains the pointer.
func AsRUM(t Target) (RUM, bool) {
	switch v := t.(type) {
	case RUM:
		return v, true
	case *RUM:
		return *v, true
	}
	return RUM{}, false
}

// asRUMRef is the copy-free variant used inside the admission path: for
// the hot *RUM case it returns the caller's pointer directly. Callers
// must treat the result as read-only and not retain it past the call.
func asRUMRef(t Target) (*RUM, bool) {
	switch v := t.(type) {
	case *RUM:
		return v, true
	case RUM:
		return &v, true
	}
	return nil, false
}

// Convertible is always true for RUM targets.
func (r RUM) Convertible() bool { return true }

// Demand returns the resource vector directly — the whole point of RUM.
func (r RUM) Demand() (ResourceVector, error) { return r.Resources, nil }

// HasTimeslot reports whether the target carries a timeslot resource.
func (r RUM) HasTimeslot() bool { return r.MaxWallClock > 0 }

// Validate checks internal consistency of the target relative to an
// arrival time.
func (r RUM) Validate(arrival int64) error {
	if !r.Resources.Valid() || r.Resources.IsZero() {
		return fmt.Errorf("qos: resource request %v is empty or negative", r.Resources)
	}
	if r.MaxWallClock < 0 {
		return fmt.Errorf("qos: negative max wall-clock %d", r.MaxWallClock)
	}
	if r.Deadline != 0 {
		if r.MaxWallClock == 0 {
			return errors.New("qos: a deadline requires a max wall-clock time")
		}
		if r.Deadline < arrival+r.MaxWallClock {
			return fmt.Errorf("qos: deadline %d unreachable even at full resources (ta=%d tw=%d)",
				r.Deadline, arrival, r.MaxWallClock)
		}
	}
	return nil
}

// OPM is an Overall Performance Metrics target (IPC). It is retained in
// the API to demonstrate §3.2's argument: it is not convertible, so the
// admission controller rejects it.
type OPM struct{ IPC float64 }

// Convertible is always false for OPM targets.
func (OPM) Convertible() bool { return false }

// Demand returns ErrNotConvertible: a CMP cannot easily determine the
// resources needed to reach a given IPC.
func (OPM) Demand() (ResourceVector, error) { return ResourceVector{}, ErrNotConvertible }

// RPM is a Resource Performance Metrics target (e.g. an L2 miss rate).
// Like OPM it is not convertible, and may even be ill-defined.
type RPM struct{ MissRate float64 }

// Convertible is always false for RPM targets.
func (RPM) Convertible() bool { return false }

// Demand returns ErrNotConvertible.
func (RPM) Demand() (ResourceVector, error) { return ResourceVector{}, ErrNotConvertible }

// Preset targets (§3.2): systems may offer preset RUM configurations —
// the familiar small/medium/large of batch-job systems — at the cost of
// encouraging overspecification, which the execution modes and resource
// stealing then claw back.

// PresetSmall returns a 1-core, 4-way preset.
func PresetSmall() ResourceVector { return ResourceVector{Cores: 1, CacheWays: 4} }

// PresetMedium returns the paper's evaluation request: 1 core and 7 of
// the 16 L2 ways (896 KB).
func PresetMedium() ResourceVector { return ResourceVector{Cores: 1, CacheWays: 7} }

// PresetLarge returns a 2-core, 10-way preset.
func PresetLarge() ResourceVector { return ResourceVector{Cores: 2, CacheWays: 10} }

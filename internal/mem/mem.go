// Package mem models the off-chip memory path of the simulated CMP: a
// fixed-latency DRAM with a peak-bandwidth bus and a simple queueing
// model for contention. The paper (§4.2 footnote 2) notes that t_m may
// grow as stealing adds misses and bus contention, that requests from
// Elastic jobs can be prioritized, and that stealing should be disabled
// when the bus saturates because queueing delay is roughly constant
// before saturation (Little's Law) and explodes after it. This package
// provides exactly those hooks: a utilization monitor with a saturation
// threshold and a contention-adjusted miss penalty.
package mem

import (
	"fmt"

	"cmpqos/internal/cpu"
)

// The paper's §6 memory system, at the core clock cpu.ClockHz.
const (
	// BaseCycles is t_m unloaded: the memory access penalty of an
	// uncontended bus, 300 cycles.
	BaseCycles = 300
	// BlockBytes is the transfer size per miss: one 64 B line.
	BlockBytes = 64
	// SatThreshold is the utilization at which the bus counts as
	// saturated.
	SatThreshold = 0.85
)

// Config describes the memory system's one varied parameter.
type Config struct {
	PeakBytesPerS float64 // peak bus bandwidth (paper: 6.4 GB/s)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PeakBytesPerS <= 0 {
		return fmt.Errorf("mem: non-positive peak bandwidth %v", c.PeakBytesPerS)
	}
	return nil
}

// Bus tracks off-chip traffic and exposes the contention-adjusted miss
// penalty. Utilization is measured over caller-delimited windows
// (epochs): the simulator calls AddMisses during an epoch and Roll at its
// end with the epoch's cycle length.
type Bus struct {
	cfg          Config
	windowMisses int64
	utilization  float64 // utilization of the last completed window
}

// NewBus builds a bus model.
func NewBus(cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{cfg: cfg}
}

// AddMisses records n L2 misses' worth of traffic in the current window.
func (b *Bus) AddMisses(n int64) { b.windowMisses += n }

// AddWriteBacks records n dirty-eviction transfers: each moves one block
// to memory, consuming the same bus bandwidth as a fill.
func (b *Bus) AddWriteBacks(n int64) { b.windowMisses += n }

// Roll closes the current measurement window, which spanned the given
// number of core cycles, computing its utilization and starting a fresh
// window. Zero-length windows leave utilization unchanged.
func (b *Bus) Roll(windowCycles int64) {
	b.utilization = b.WindowUtilization(b.windowMisses, windowCycles)
	b.windowMisses = 0
}

// Utilization returns the bus utilization of the last completed window,
// in [0, 1].
func (b *Bus) Utilization() float64 { return b.utilization }

// WindowUtilization returns the utilization a window of `transfers`
// block transfers over windowCycles core cycles yields, capped at 1,
// without mutating the bus: what Roll stores, and what the
// event-horizon fast-forward uses as its fixed-point test — steady
// epochs may be skipped only when their traffic hands back the current
// utilization bit for bit, so every contention penalty in the skipped
// epochs is bit-identical too and the bus ends the window where it
// began.
func (b *Bus) WindowUtilization(transfers, windowCycles int64) float64 {
	if windowCycles <= 0 {
		return b.utilization
	}
	seconds := float64(windowCycles) / cpu.ClockHz
	demand := float64(transfers) * BlockBytes
	u := demand / (b.cfg.PeakBytesPerS * seconds)
	if u > 1 {
		u = 1
	}
	return u
}

// Saturated reports whether the last window's utilization crossed the
// saturation threshold. The resource-stealing controller disables
// itself while this holds (paper §4.2 footnote 2).
func (b *Bus) Saturated() bool { return b.utilization >= SatThreshold }

// Priority classifies memory requests for the bus scheduler. The paper
// (§4.2 footnote 2) mitigates the t_m growth that stealing causes by
// prioritizing memory requests from Elastic(X) jobs over those from
// Opportunistic jobs; we generalize to reserved-vs-opportunistic.
type Priority int

const (
	// PrioReserved marks requests from Strict/Elastic jobs.
	PrioReserved Priority = iota
	// PrioOpportunistic marks requests from Opportunistic jobs.
	PrioOpportunistic
)

// String names the priority class.
func (p Priority) String() string {
	if p == PrioOpportunistic {
		return "opportunistic"
	}
	return "reserved"
}

// queuePenaltyAt is the shared M/M/1-flavoured queueing term at
// utilization rho, scaled by weight: penalty = base·(1 + weight·ρ/(1−ρ)),
// capped at 4× base so a fully saturated bus degrades rather than
// deadlocks the simulation.
func (b *Bus) queuePenaltyAt(weight, rho float64) float64 {
	base := float64(BaseCycles)
	if rho <= 0 {
		return base
	}
	if rho >= 0.99 {
		rho = 0.99
	}
	penalty := base * (1 + weight*rho/(1-rho))
	if max := base * 4; penalty > max {
		penalty = max
	}
	return penalty
}

// MissPenaltyAt returns the contention-adjusted L2 miss penalty in
// cycles at bus utilization rho, without priority scheduling: the
// unloaded latency plus a queueing term that, per the paper's
// observation, stays roughly flat below saturation (at ρ=0.5 it is +25%,
// at ρ=0.85 +142%) and grows sharply at it. Taking rho rather than the
// bus's own utilization lets the event-horizon fast-forward price the
// epochs of a bus limit cycle without mutating the bus.
func (b *Bus) MissPenaltyAt(rho float64) float64 { return b.queuePenaltyAt(0.25, rho) }

// SaturatedAt is Saturated evaluated at an explicit utilization.
func (b *Bus) SaturatedAt(rho float64) bool { return rho >= SatThreshold }

// MissPenaltyForAt returns the class-specific penalty at utilization rho
// under priority scheduling: reserved-class requests bypass most of the
// queue (their delay stays near the unloaded latency until true
// saturation), while opportunistic requests absorb the queueing the
// reserved ones skipped. The weights are chosen so the class-blended
// penalty roughly matches the unprioritized MissPenaltyAt at a 50/50
// traffic split.
func (b *Bus) MissPenaltyForAt(p Priority, rho float64) float64 {
	if p == PrioReserved {
		return b.queuePenaltyAt(0.08, rho)
	}
	return b.queuePenaltyAt(0.42, rho)
}

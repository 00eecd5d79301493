// Package cpu holds the timing constants of the paper's in-order cores
// and the additive CPI model the paper builds its resource-stealing
// criteria on (§4.2, after Luo):
//
//	CPI = CPI_{L1∞} + h₂·t₂ + h_m·t_m
//
// where CPI_{L1∞} is the core CPI with an infinite L1, h₂ is L2 accesses
// per instruction, t₂ the L2 hit latency, h_m L2 misses per instruction,
// and t_m the L2 miss (memory) penalty. The additive structure is what
// guarantees that an X% increase in h_m produces a *less than* X%
// increase in CPI — the safety argument behind using the L2 miss rate as
// the stealing guard. That is the whole core model: pipelines are not
// simulated, the CPI model subsumes them, as it does in the paper.
package cpu

// The paper's §6 core. t_m is the memory system's: mem.BaseCycles
// unloaded, the bus model's contention-adjusted penalty under load.
const (
	// ClockHz is the core clock: 2 GHz.
	ClockHz = 2e9
	// L2HitCycles is t₂, the penalty of an L2 access: 10 cycles.
	L2HitCycles = 10
)

// CPI evaluates the additive CPI model for a job described by its
// infinite-L1 CPI, L2 accesses per instruction h2, and L2 misses per
// instruction hm, at a memory penalty of memCycles (t_m).
func CPI(cpiL1Inf, h2, hm, memCycles float64) float64 {
	return cpiL1Inf + h2*L2HitCycles + hm*memCycles
}

// IPC is the reciprocal of CPI; it returns 0 for non-positive CPI.
func IPC(cpiL1Inf, h2, hm, memCycles float64) float64 {
	cpi := CPI(cpiL1Inf, h2, hm, memCycles)
	if cpi <= 0 {
		return 0
	}
	return 1 / cpi
}

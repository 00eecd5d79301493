// Package cpu holds the timing parameters of the paper's in-order cores
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

import "fmt"

// Params holds the core's timing parameters (paper §6 defaults via
// PaperParams).
type Params struct {
	ClockHz     float64 // core clock, Hz
	L1HitCycles float64 // L1 access latency (overlapped for in-order issue bookkeeping)
	L2HitCycles float64 // t₂: penalty of an L2 access
	MemCycles   float64 // t_m: penalty of an L2 miss (memory access)
}

// PaperParams returns the evaluation parameters from paper §6: 2 GHz
// in-order cores, 2-cycle L1, 10-cycle L2, 300-cycle memory.
func PaperParams() Params {
	return Params{ClockHz: 2e9, L1HitCycles: 2, L2HitCycles: 10, MemCycles: 300}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.ClockHz <= 0 || p.L2HitCycles <= 0 || p.MemCycles <= 0 {
		return fmt.Errorf("cpu: non-positive timing parameters %+v", p)
	}
	if p.MemCycles <= p.L2HitCycles {
		return fmt.Errorf("cpu: memory penalty %v must exceed L2 latency %v",
			p.MemCycles, p.L2HitCycles)
	}
	return nil
}

// CPI evaluates the additive CPI model for a job described by its
// infinite-L1 CPI, L2 accesses per instruction h2, and L2 misses per
// instruction hm. memCycles overrides t_m so the memory model can feed in
// a contention-adjusted penalty.
func (p Params) CPI(cpiL1Inf, h2, hm, memCycles float64) float64 {
	return cpiL1Inf + h2*p.L2HitCycles + hm*memCycles
}

// IPC is the reciprocal of CPI; it returns 0 for non-positive CPI.
func (p Params) IPC(cpiL1Inf, h2, hm, memCycles float64) float64 {
	cpi := p.CPI(cpiL1Inf, h2, hm, memCycles)
	if cpi <= 0 {
		return 0
	}
	return 1 / cpi
}

// CyclesFor returns the cycles needed to retire instr instructions at the
// given CPI.
func (p Params) CyclesFor(instr int64, cpi float64) int64 {
	return int64(float64(instr)*cpi + 0.5)
}

// Seconds converts a cycle count to wall-clock seconds.
func (p Params) Seconds(cycles int64) float64 { return float64(cycles) / p.ClockHz }

// Cycles converts wall-clock seconds to cycles.
func (p Params) Cycles(seconds float64) int64 { return int64(seconds*p.ClockHz + 0.5) }

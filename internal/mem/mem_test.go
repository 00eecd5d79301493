package mem

import (
	"testing"
	"testing/quick"
)

// paper is the §6 bus: 6.4 GB/s.
var paper = Config{PeakBytesPerS: 6.4e9}

func TestValidateRejectsBadConfig(t *testing.T) {
	for _, c := range []Config{{PeakBytesPerS: 0}, {PeakBytesPerS: -1}} {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	if err := paper.Validate(); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
}

func TestUtilizationWindow(t *testing.T) {
	b := NewBus(paper)
	// 1 ms window at 2 GHz = 2e6 cycles. Peak traffic in 1 ms is
	// 6.4e9 * 1e-3 = 6.4e6 bytes = 100_000 blocks of 64 B.
	b.AddMisses(50000) // half of peak
	b.Roll(2_000_000)
	if u := b.Utilization(); u < 0.49 || u > 0.51 {
		t.Errorf("utilization = %v, want ~0.5", u)
	}
	if b.Saturated() {
		t.Error("bus should not be saturated at 50%")
	}
	// Next window with no traffic: utilization drops to 0.
	b.Roll(2_000_000)
	if b.Utilization() != 0 {
		t.Errorf("empty window utilization = %v, want 0", b.Utilization())
	}
}

func TestSaturationDetection(t *testing.T) {
	b := NewBus(paper)
	b.AddMisses(95000) // 95% of peak in a 1 ms window
	b.Roll(2_000_000)
	if !b.Saturated() {
		t.Errorf("bus at %v utilization should be saturated", b.Utilization())
	}
}

func TestUtilizationClamped(t *testing.T) {
	b := NewBus(paper)
	b.AddMisses(1_000_000) // 10x peak
	b.Roll(2_000_000)
	if b.Utilization() != 1 {
		t.Errorf("utilization = %v, want clamped to 1", b.Utilization())
	}
}

func TestMissPenaltyShape(t *testing.T) {
	b := NewBus(paper)
	// Unloaded: exactly the base penalty.
	if p := b.MissPenaltyAt(b.Utilization()); p != 300 {
		t.Errorf("unloaded penalty = %v, want 300", p)
	}
	// Below saturation the penalty stays within ~50% of base (the
	// paper's "roughly constant before saturation").
	b.AddMisses(50000)
	b.Roll(2_000_000)
	p50 := b.MissPenaltyAt(b.Utilization())
	if p50 < 300 || p50 > 450 {
		t.Errorf("penalty at 50%% = %v, want within [300, 450]", p50)
	}
	// At saturation the penalty grows sharply but stays capped at 4x.
	b.AddMisses(100000)
	b.Roll(2_000_000)
	pSat := b.MissPenaltyAt(b.Utilization())
	if pSat <= p50 {
		t.Errorf("penalty should grow with utilization: %v <= %v", pSat, p50)
	}
	if pSat > 1200 {
		t.Errorf("penalty = %v, want capped at 1200", pSat)
	}
}

func TestMissPenaltyMonotone(t *testing.T) {
	// Property: the miss penalty never decreases as utilization rises.
	cfg := paper
	f := func(a, b uint16) bool {
		ua, ub := float64(a)/65535, float64(b)/65535
		if ua > ub {
			ua, ub = ub, ua
		}
		busA, busB := NewBus(cfg), NewBus(cfg)
		// Inject windows that produce utilizations ua and ub.
		window := int64(2_000_000)
		peakBlocks := 100000.0
		busA.AddMisses(int64(ua * peakBlocks))
		busA.Roll(window)
		busB.AddMisses(int64(ub * peakBlocks))
		busB.Roll(window)
		return busA.MissPenaltyAt(busA.Utilization()) <= busB.MissPenaltyAt(busB.Utilization())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPriorityScheduling(t *testing.T) {
	b := NewBus(paper)
	// Unloaded: all classes see the base penalty.
	if b.MissPenaltyForAt(PrioReserved, b.Utilization()) != 300 || b.MissPenaltyForAt(PrioOpportunistic, b.Utilization()) != 300 {
		t.Error("unloaded penalties must equal base")
	}
	// Under load: reserved < blended < opportunistic, all ≥ base.
	b.AddMisses(70000) // 70% utilization in a 1 ms window
	b.Roll(2_000_000)
	res := b.MissPenaltyForAt(PrioReserved, b.Utilization())
	opp := b.MissPenaltyForAt(PrioOpportunistic, b.Utilization())
	mid := b.MissPenaltyAt(b.Utilization())
	if !(res < mid && mid < opp) {
		t.Errorf("priority ordering broken: reserved %v, blended %v, opportunistic %v", res, mid, opp)
	}
	if res < 300 || opp > 1200 {
		t.Errorf("penalties out of range: %v / %v", res, opp)
	}
	// Reserved stays near the unloaded latency below saturation
	// (the paper's footnote 2 mitigation).
	if res > 300*1.25 {
		t.Errorf("reserved penalty %v should stay within 25%% of base at 70%% load", res)
	}
	if PrioReserved.String() != "reserved" || PrioOpportunistic.String() != "opportunistic" {
		t.Error("priority names wrong")
	}
}

// TestWindowAccumulatesUntilRoll: every transfer added inside a window
// counts toward that window's utilization, and Roll starts the next
// window empty.
func TestWindowAccumulatesUntilRoll(t *testing.T) {
	b := NewBus(paper)
	b.AddMisses(10)
	b.Roll(1000)
	b.AddMisses(5)
	b.AddMisses(10)
	b.Roll(1000)
	// 1000 cycles at 2 GHz carry at most 50 blocks of 64 B at 6.4 GB/s.
	if got := b.Utilization(); got != 0.3 {
		t.Errorf("utilization = %v, want 15 of 50 blocks = 0.3", got)
	}
}

func TestZeroLengthWindowKeepsUtilization(t *testing.T) {
	b := NewBus(paper)
	b.AddMisses(50000)
	b.Roll(2_000_000)
	u := b.Utilization()
	b.Roll(0) // must not divide by zero or reset utilization
	if b.Utilization() != u {
		t.Errorf("zero window changed utilization: %v -> %v", u, b.Utilization())
	}
}

func TestNewBusPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBus with invalid config did not panic")
		}
	}()
	NewBus(Config{})
}

func TestWriteBackTraffic(t *testing.T) {
	b := NewBus(paper)
	b.AddMisses(10)
	b.AddWriteBacks(5)
	// Write-backs consume bandwidth like fills: 15 of 50 blocks.
	b.Roll(1000)
	if got := b.Utilization(); got != 0.3 {
		t.Errorf("utilization = %v, want 15 transfers' 0.3", got)
	}
	b.AddWriteBacks(5)
	b.Roll(1000)
	if got := b.Utilization(); got != 0.1 {
		t.Errorf("write-backs alone: utilization = %v, want 0.1", got)
	}
}

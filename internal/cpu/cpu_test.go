package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	if p.ClockHz != 2e9 || p.L2HitCycles != 10 || p.MemCycles != 300 {
		t.Errorf("paper params wrong: %+v", p)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{ClockHz: 0, L2HitCycles: 10, MemCycles: 300},
		{ClockHz: 2e9, L2HitCycles: 0, MemCycles: 300},
		{ClockHz: 2e9, L2HitCycles: 10, MemCycles: 0},
		{ClockHz: 2e9, L2HitCycles: 300, MemCycles: 10}, // mem <= L2
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestCPIAdditive(t *testing.T) {
	p := PaperParams()
	// Table 1 bzip2 operating point: h2 = MPI/missrate = 0.0055/0.20.
	h2 := 0.0055 / 0.20
	got := p.CPI(0.7, h2, 0.0055, p.MemCycles)
	want := 0.7 + h2*10 + 0.0055*300
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CPI = %v, want %v", got, want)
	}
}

func TestCPIncreaseBoundedByMissIncrease(t *testing.T) {
	// The paper's §4.2 safety property: increasing hm by X% increases
	// CPI by strictly less than X%, for any positive base components.
	p := PaperParams()
	f := func(base, h2, hm, incPct uint8) bool {
		cpiBase := 0.1 + float64(base)/100  // 0.1 .. 2.65
		h2f := float64(h2) / 2550           // 0 .. 0.1
		hmf := float64(hm) / 25500          // 0 .. 0.01
		x := 0.01 + float64(incPct)/255*0.5 // 1% .. 51%
		if hmf == 0 {
			return true
		}
		cpi0 := p.CPI(cpiBase, h2f, hmf, p.MemCycles)
		cpi1 := p.CPI(cpiBase, h2f, hmf*(1+x), p.MemCycles)
		rel := (cpi1 - cpi0) / cpi0
		return rel < x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIPCGuards(t *testing.T) {
	p := PaperParams()
	if ipc := p.IPC(0, 0, 0, 0); ipc != 0 {
		t.Errorf("IPC with zero CPI = %v, want 0", ipc)
	}
	if ipc := p.IPC(2, 0, 0, p.MemCycles); ipc != 0.5 {
		t.Errorf("IPC = %v, want 0.5", ipc)
	}
}

func TestCyclesSecondsRoundTrip(t *testing.T) {
	p := PaperParams()
	cy := p.CyclesFor(1000, 2.5)
	if cy != 2500 {
		t.Errorf("CyclesFor = %d, want 2500", cy)
	}
	s := p.Seconds(2e9)
	if s != 1 {
		t.Errorf("Seconds(2e9) = %v, want 1", s)
	}
	if got := p.Cycles(0.5); got != 1e9 {
		t.Errorf("Cycles(0.5) = %d, want 1e9", got)
	}
}

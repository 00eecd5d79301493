package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

// tm is the paper's unloaded memory penalty (mem.BaseCycles, which
// imports this package).
const tm = 300

func TestCPIAdditive(t *testing.T) {
	// Table 1 bzip2 operating point: h2 = MPI/missrate = 0.0055/0.20.
	h2 := 0.0055 / 0.20
	got := CPI(0.7, h2, 0.0055, tm)
	want := 0.7 + h2*10 + 0.0055*300
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("CPI = %v, want %v", got, want)
	}
}

func TestCPIncreaseBoundedByMissIncrease(t *testing.T) {
	// The paper's §4.2 safety property: increasing hm by X% increases
	// CPI by strictly less than X%, for any positive base components.
	f := func(base, h2, hm, incPct uint8) bool {
		cpiBase := 0.1 + float64(base)/100  // 0.1 .. 2.65
		h2f := float64(h2) / 2550           // 0 .. 0.1
		hmf := float64(hm) / 25500          // 0 .. 0.01
		x := 0.01 + float64(incPct)/255*0.5 // 1% .. 51%
		if hmf == 0 {
			return true
		}
		cpi0 := CPI(cpiBase, h2f, hmf, tm)
		cpi1 := CPI(cpiBase, h2f, hmf*(1+x), tm)
		rel := (cpi1 - cpi0) / cpi0
		return rel < x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIPCGuards(t *testing.T) {
	if ipc := IPC(0, 0, 0, 0); ipc != 0 {
		t.Errorf("IPC with zero CPI = %v, want 0", ipc)
	}
	if ipc := IPC(2, 0, 0, tm); ipc != 0.5 {
		t.Errorf("IPC = %v, want 0.5", ipc)
	}
}

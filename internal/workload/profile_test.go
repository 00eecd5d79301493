package workload

import (
	"math"
	"testing"

	"cmpqos/internal/cpu"
	"cmpqos/internal/mem"
)

func TestFifteenProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 15 {
		t.Fatalf("got %d profiles, want 15 (paper §6)", len(ps))
	}
	seen := map[string]bool{}
	groups := map[Group]int{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		groups[p.Group]++
	}
	for _, g := range []Group{GroupHigh, GroupModerate, GroupInsensitive} {
		if groups[g] == 0 {
			t.Errorf("no profiles in group %v", g)
		}
	}
	// The paper's three representatives, one per group.
	if MustByName("bzip2").Group != GroupHigh {
		t.Error("bzip2 must be highly sensitive (Group 1)")
	}
	if MustByName("hmmer").Group != GroupModerate {
		t.Error("hmmer must be moderately sensitive (Group 2)")
	}
	if MustByName("gobmk").Group != GroupInsensitive {
		t.Error("gobmk must be insensitive (Group 3)")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("bzip2"); !ok {
		t.Error("bzip2 not found")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("unknown benchmark found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName on unknown name did not panic")
		}
	}()
	MustByName("nonesuch")
}

func TestTable1OperatingPoints(t *testing.T) {
	// Paper Table 1 @ 7 ways: miss rate and misses-per-instruction.
	cases := []struct {
		name     string
		missRate float64
		mpi      float64
	}{
		{"bzip2", 0.20, 0.0055},
		{"hmmer", 0.17, 0.001},
		{"gobmk", 0.24, 0.004},
	}
	for _, tc := range cases {
		p := MustByName(tc.name)
		if got := p.MissRatio(7); math.Abs(got-tc.missRate) > 0.005 {
			t.Errorf("%s miss rate @7 ways = %v, want %v", tc.name, got, tc.missRate)
		}
		if got := p.MPI(7); math.Abs(got-tc.mpi)/tc.mpi > 0.05 {
			t.Errorf("%s MPI @7 ways = %v, want %v", tc.name, got, tc.mpi)
		}
	}
}

func TestMissCurvesMonotone(t *testing.T) {
	for _, p := range Profiles() {
		if p.MissRatio(0) != 1 {
			t.Errorf("%s: MissRatio(0) = %v, want 1", p.Name, p.MissRatio(0))
		}
		for w := 1; w <= 16; w++ {
			if p.MissRatio(w) > p.MissRatio(w-1) {
				t.Errorf("%s: miss curve rises at %d ways", p.Name, w)
			}
		}
		// Clamping beyond the ends.
		if p.MissRatio(40) != p.MissRatio(16) {
			t.Errorf("%s: MissRatio must clamp above 16 ways", p.Name)
		}
		if p.MissRatio(-2) != 1 {
			t.Errorf("%s: MissRatio must clamp below 0 ways", p.Name)
		}
	}
}

func TestFig4SensitivityClassification(t *testing.T) {
	// ΔCPI from 7→1 ways must separate the groups: every Group 1 member
	// is more sensitive than every Group 3 member, with Group 2 between
	// them on at least the group means (Figure 4).
	delta := func(p Profile) float64 {
		c7 := p.CPI(7)
		c1 := p.CPI(1)
		return (c1 - c7) / c7
	}
	groupVals := map[Group][]float64{}
	for _, p := range Profiles() {
		groupVals[p.Group] = append(groupVals[p.Group], delta(p))
	}
	minMax := func(xs []float64) (lo, hi float64) {
		lo, hi = xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return
	}
	g1lo, _ := minMax(groupVals[GroupHigh])
	g2lo, g2hi := minMax(groupVals[GroupModerate])
	_, g3hi := minMax(groupVals[GroupInsensitive])
	if g1lo <= g3hi {
		t.Errorf("group separation violated: min(G1)=%v <= max(G3)=%v", g1lo, g3hi)
	}
	if g2lo <= g3hi {
		t.Errorf("G2 overlaps G3: min(G2)=%v <= max(G3)=%v", g2lo, g3hi)
	}
	if g2hi >= g1lo {
		t.Errorf("G2 overlaps G1: max(G2)=%v >= min(G1)=%v", g2hi, g1lo)
	}
}

func TestFig1ShapeBzip2(t *testing.T) {
	// Figure 1: with the L2 equally divided among n bzip2 instances, the
	// QoS target (2/3 of the alone IPC) is met for n <= 2 and missed for
	// n >= 3.
	p := MustByName("bzip2")
	alone := p.IPC(16)
	target := alone * 2 / 3
	for n := 1; n <= 4; n++ {
		ipc := p.IPC(16 / n)
		meets := ipc >= target
		wantMeets := n <= 2
		if meets != wantMeets {
			t.Errorf("n=%d: IPC %v vs target %v, meets=%v, want %v",
				n, ipc, target, meets, wantMeets)
		}
	}
}

func TestCPIWeighting(t *testing.T) {
	p := MustByName("bzip2")
	want := p.CPIL1Inf + p.L2APA*cpu.L2HitCycles + p.MPI(7)*mem.BaseCycles
	if got := p.CPI(7); math.Abs(got-want) > 1e-12 {
		t.Errorf("CPI = %v, want %v", got, want)
	}
	if ipc := p.IPC(7); math.Abs(ipc*want-1) > 1e-9 {
		t.Errorf("IPC·CPI = %v, want 1", ipc*want)
	}
}

func TestRegionWeightsSumToOne(t *testing.T) {
	for _, p := range Profiles() {
		sum := p.StreamWeight
		for _, r := range p.Regions {
			sum += r.Weight
			if r.SizeBytes <= 0 {
				t.Errorf("%s: non-positive region size", p.Name)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: weights sum to %v, want 1", p.Name, sum)
		}
	}
}

func TestInterpCurvePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("missing endpoints", func() {
		interpCurve(map[int]float64{2: 0.5, 16: 0.1})
	})
	mustPanic("non-monotone", func() {
		interpCurve(map[int]float64{1: 0.2, 8: 0.5, 16: 0.1})
	})
}

func TestPhaseSchedule(t *testing.T) {
	p := MustByName("bzip2")
	if p.PhaseScale(0.5) != 1 || p.MaxPhaseScale() != 1 {
		t.Error("phase-free profile must scale by 1")
	}
	ph := p.WithPhases(
		Phase{Until: 0.3, MPIScale: 0.6},
		Phase{Until: 0.8, MPIScale: 1.0},
		Phase{Until: 1.0, MPIScale: 1.8},
	)
	if s := ph.PhaseScale(0.1); s != 0.6 {
		t.Errorf("scale at 0.1 = %v, want 0.6", s)
	}
	if s := ph.PhaseScale(0.3); s != 0.6 {
		t.Errorf("scale at boundary 0.3 = %v, want 0.6", s)
	}
	if s := ph.PhaseScale(0.9); s != 1.8 {
		t.Errorf("scale at 0.9 = %v, want 1.8", s)
	}
	if m := ph.MaxPhaseScale(); m != 1.8 {
		t.Errorf("max scale = %v, want 1.8", m)
	}
	// The original profile is untouched (WithPhases copies).
	if len(p.Phases) != 0 {
		t.Error("WithPhases mutated the receiver")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("not ending at 1", func() { p.WithPhases(Phase{Until: 0.5, MPIScale: 1}) })
	mustPanic("descending", func() {
		p.WithPhases(Phase{Until: 0.8, MPIScale: 1}, Phase{Until: 0.4, MPIScale: 1})
	})
	mustPanic("negative scale", func() { p.WithPhases(Phase{Until: 1, MPIScale: -1}) })
}

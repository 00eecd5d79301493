package alloc

import (
	"testing"
	"testing/quick"

	"cmpqos/internal/workload"
)

func demands(names ...string) []Demand {
	var out []Demand
	for _, n := range names {
		out = append(out, Demand{Profile: workload.MustByName(n)})
	}
	return out
}

// waysOf is the total of an allocation's ways.
func waysOf(a Allocation) int {
	s := 0
	for _, w := range a {
		s += w
	}
	return s
}

func TestEqualSplit(t *testing.T) {
	d := demands("bzip2", "hmmer", "gobmk", "mcf")
	a := Equal(d, 16)
	for i, w := range a {
		if w != 4 {
			t.Errorf("job %d got %d ways, want 4", i, w)
		}
	}
	// Remainders go to the earliest jobs.
	a = Equal(demands("bzip2", "hmmer", "gobmk"), 16)
	if a[0] != 6 || a[1] != 5 || a[2] != 5 {
		t.Errorf("remainder split = %v, want [6 5 5]", a)
	}
}

func TestUCPFavorsSensitiveJobs(t *testing.T) {
	// bzip2 (steep curve, high access rate) against gobmk (flat): UCP
	// should give bzip2 nearly everything beyond the minimum.
	d := demands("bzip2", "gobmk")
	a := UCP(d, 16)
	if waysOf(a) > 16 {
		t.Fatalf("allocation %v exceeds capacity", a)
	}
	if a[0] <= a[1] {
		t.Errorf("UCP gave bzip2 %d vs gobmk %d; the utility curve demands more for bzip2", a[0], a[1])
	}
	if a[1] < MinWays {
		t.Errorf("gobmk got %d ways, below the minimum", a[1])
	}
}

func TestUCPBeatsEqualOnTotalMisses(t *testing.T) {
	for _, mix := range [][]string{
		{"bzip2", "gobmk", "milc", "hmmer"},
		{"mcf", "povray", "namd", "soplex"},
	} {
		d := demands(mix...)
		eq := Evaluate(d, Equal(d, 16), 16)
		up := Evaluate(d, UCP(d, 16), 16)
		if up.TotalMPI > eq.TotalMPI+1e-12 {
			t.Errorf("%v: UCP total MPI %v worse than equal %v", mix, up.TotalMPI, eq.TotalMPI)
		}
	}
}

func TestFairEqualizesSlowdowns(t *testing.T) {
	d := demands("bzip2", "gobmk", "milc", "hmmer")
	fair := Evaluate(d, Fair(d, 16), 16)
	eq := Evaluate(d, Equal(d, 16), 16)
	if fair.Unfairness() > eq.Unfairness()+1e-9 {
		t.Errorf("fair unfairness %v worse than equal %v", fair.Unfairness(), eq.Unfairness())
	}
	if fair.MaxSlowdown > eq.MaxSlowdown+1e-9 {
		t.Errorf("fair max slowdown %v worse than equal %v", fair.MaxSlowdown, eq.MaxSlowdown)
	}
}

func TestNeitherOptimizerGuaranteesQoS(t *testing.T) {
	// The paper's §2 point: throughput and fairness optimizers do not
	// honor an individual job's resource guarantee. Give gobmk a "QoS
	// target" of 7 ways (the paper's medium preset): UCP starves it and
	// Fair need not respect it either.
	d := demands("bzip2", "mcf", "soplex", "gobmk")
	ucp := UCP(d, 16)
	if ucp[3] >= 7 {
		t.Errorf("UCP unexpectedly satisfied gobmk's 7-way request: %v", ucp)
	}
}

func TestAllocationInvariants(t *testing.T) {
	names := []string{"bzip2", "hmmer", "gobmk", "mcf", "milc", "soplex", "povray", "gcc"}
	f := func(sel uint8, waysRaw uint8) bool {
		// Choose 2-4 demands and a total of ways that can cover them.
		n := 2 + int(sel%3)
		var d []Demand
		for i := 0; i < n; i++ {
			d = append(d, Demand{Profile: workload.MustByName(names[(int(sel)+i*3)%len(names)])})
		}
		total := n + int(waysRaw%13) + 1 // at least n+1 ways
		for _, a := range []Allocation{
			Equal(d, total),
			UCP(d, total),
			Fair(d, total),
		} {
			if len(a) != n || waysOf(a) > total {
				return false
			}
			for _, w := range a {
				if w < MinWays {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidatePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no demands", func() { Equal(nil, 16) })
	mustPanic("too few ways", func() { Equal(demands("bzip2", "hmmer"), 1) })
}

func TestMetricsEvaluate(t *testing.T) {
	d := demands("bzip2", "gobmk")
	m := Evaluate(d, Allocation{8, 8}, 16)
	if len(m.Slowdowns) != 2 {
		t.Fatal("missing slowdowns")
	}
	for _, s := range m.Slowdowns {
		if s < 1 {
			t.Errorf("slowdown %v below 1 — alone reference broken", s)
		}
	}
	if m.MaxSlowdown < m.MinSlowdown {
		t.Error("max < min")
	}
	if m.Unfairness() < 1 {
		t.Errorf("unfairness %v below 1", m.Unfairness())
	}
	if m.WeightedSpeed <= 0 || m.WeightedSpeed > 1 {
		t.Errorf("weighted speedup %v out of (0,1]", m.WeightedSpeed)
	}
}

func TestUCPNearOptimalForTwoJobs(t *testing.T) {
	// For two demands the optimal split is enumerable: UCP's lookahead
	// greedy must match the exhaustive optimum in total MPI.
	for _, pair := range [][2]string{
		{"bzip2", "gobmk"}, {"mcf", "hmmer"}, {"soplex", "milc"}, {"bzip2", "mcf"},
	} {
		d := demands(pair[0], pair[1])
		const total = 16
		bestMPI := 1e18
		for w0 := MinWays; w0 <= total-MinWays; w0++ {
			mpi := d[0].Profile.MPI(w0) + d[1].Profile.MPI(total-w0)
			if mpi < bestMPI {
				bestMPI = mpi
			}
		}
		got := UCP(d, total)
		gotMPI := d[0].Profile.MPI(got[0]) + d[1].Profile.MPI(got[1])
		// UCP may leave ways idle when marginal utility hits zero; allow
		// a sliver of slack over the exhaustive optimum.
		if gotMPI > bestMPI*1.02+1e-9 {
			t.Errorf("%v: UCP MPI %v vs optimal %v (alloc %v)", pair, gotMPI, bestMPI, got)
		}
	}
}

// TestUCPLeavesUselessWaysIdle: when no job's misses fall with another
// way, UCP stops and leaves the rest of the cache unassigned.
func TestUCPLeavesUselessWaysIdle(t *testing.T) {
	p := workload.MustByName("bzip2")
	p.L2APA = 0 // a job that never reaches the L2 gains nothing from it
	a := UCP([]Demand{{Profile: p}, {Profile: p}}, 16)
	if a[0] != MinWays || a[1] != MinWays {
		t.Errorf("UCP gave ways to jobs that miss nothing: %v", a)
	}
}

// TestUnfairnessOfNoSlowdown: metrics with no measured slowdown report
// 0, not a division by zero.
func TestUnfairnessOfNoSlowdown(t *testing.T) {
	if got := (Metrics{}).Unfairness(); got != 0 {
		t.Errorf("Unfairness() = %v, want 0", got)
	}
}

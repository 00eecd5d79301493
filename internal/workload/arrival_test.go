package workload

import (
	"math"
	"strings"
	"testing"
)

func TestDeadlineFactors(t *testing.T) {
	if DeadlineTight.Factor() != 1.05 {
		t.Errorf("tight factor = %v, want 1.05", DeadlineTight.Factor())
	}
	if DeadlineModerate.Factor() != 2.0 {
		t.Errorf("moderate factor = %v, want 2", DeadlineModerate.Factor())
	}
	if DeadlineRelaxed.Factor() != 3.0 {
		t.Errorf("relaxed factor = %v, want 3", DeadlineRelaxed.Factor())
	}
}

func TestDeadlineMixProportions(t *testing.T) {
	m := NewDeadlineMix(99)
	counts := map[DeadlineClass]int{}
	for i := 0; i < 100; i++ {
		counts[m.Next()]++
	}
	// Exact per the block design: 50/30/20.
	if counts[DeadlineTight] != 50 || counts[DeadlineModerate] != 30 || counts[DeadlineRelaxed] != 20 {
		t.Errorf("mix = %v, want 50/30/20", counts)
	}
}

func TestDeadlineMixDeterministic(t *testing.T) {
	a, b := NewDeadlineMix(5), NewDeadlineMix(5)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed deadline mixes diverged")
		}
	}
}

func TestArrivalsRate(t *testing.T) {
	tw := int64(10_000_000)
	a := NewArrivals(3, DefaultProbesPerTw, tw)
	n := 5000
	var last int64
	for i := 0; i < n; i++ {
		ts := a.Next()
		if ts < last {
			t.Fatal("arrival timestamps went backwards")
		}
		last = ts
	}
	// Mean inter-arrival should be tw/512 cycles, within 10%.
	mean := float64(last) / float64(n)
	want := float64(tw) / DefaultProbesPerTw
	if math.Abs(mean-want)/want > 0.10 {
		t.Errorf("mean inter-arrival = %v cycles, want ~%v", mean, want)
	}
}

func TestArrivalsValidation(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		tw   int64
	}{{0, 100}, {-1, 100}, {512, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArrivals(%v,%v) did not panic", tc.rate, tc.tw)
				}
			}()
			NewArrivals(1, tc.rate, tc.tw)
		}()
	}
}

func TestCompositions(t *testing.T) {
	s := Single("bzip2")
	if len(s.Jobs) != 10 {
		t.Fatalf("single workload has %d jobs, want 10", len(s.Jobs))
	}
	hints := map[ModeHint]int{}
	for _, j := range s.Jobs {
		if j.Benchmark != "bzip2" {
			t.Errorf("single workload contains %q", j.Benchmark)
		}
		hints[j.Hint]++
	}
	if hints[HintStrict] != 4 || hints[HintElastic] != 3 || hints[HintOpportunistic] != 3 {
		t.Errorf("hint pattern = %v, want 4/3/3 (Table 2 Hybrid-2)", hints)
	}
	// The tenth job must be Strict (paper §7.1's explanation).
	if s.Jobs[9].Hint != HintStrict {
		t.Error("tenth job must carry a Strict hint")
	}

	m1 := Mix1()
	if m1.Jobs[0].Benchmark != "hmmer" || m1.Jobs[0].Hint != HintStrict {
		t.Errorf("Mix-1 job 0 = %+v, want hmmer/strict", m1.Jobs[0])
	}
	if m1.Jobs[1].Benchmark != "gobmk" || m1.Jobs[1].Hint != HintElastic {
		t.Errorf("Mix-1 job 1 = %+v, want gobmk/elastic", m1.Jobs[1])
	}
	if m1.Jobs[2].Benchmark != "bzip2" || m1.Jobs[2].Hint != HintOpportunistic {
		t.Errorf("Mix-1 job 2 = %+v, want bzip2/opportunistic", m1.Jobs[2])
	}
	m2 := Mix2()
	if m2.Jobs[1].Benchmark != "bzip2" || m2.Jobs[2].Benchmark != "gobmk" {
		t.Error("Mix-2 must swap the elastic/opportunistic benchmarks")
	}
	if len(m1.Jobs) != 10 || len(m2.Jobs) != 10 {
		t.Error("mixes must contain 10 jobs")
	}
}

func TestSingleValidatesBenchmark(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Single with unknown benchmark did not panic")
		}
	}()
	Single("nonesuch")
}

// TestArrivalsPanicPastChunkEnd: a chunk whose bits after the cursor read
// zero (a packing fault, or a read past the last code) makes Next panic
// at the read, naming the arrival, where the quotient loop would
// otherwise run without end. The whole chunk decodes.
func TestArrivalsPanicPastChunkEnd(t *testing.T) {
	var gaps [tapeChunk]int64
	for i := range gaps {
		gaps[i] = 100 + int64(i%5)<<40 // quotients past a word, and short ones
	}
	read := func(code []byte) (stamps []int64, panicked any) {
		a := &Arrivals{packedCursor: packedCursor[[]byte]{t: &gapTape{chunks: [][]byte{code}}}}
		defer func() { panicked = recover() }()
		for range tapeChunk {
			stamps = append(stamps, a.Next())
		}
		return stamps, nil
	}
	whole := packGaps(&gaps)
	stamps, p := read(whole)
	if p != nil || len(stamps) != tapeChunk || stamps[tapeChunk-1] != stamps[tapeChunk-2]+gaps[tapeChunk-1] {
		t.Fatalf("the whole chunk: %d stamps, panic %v", len(stamps), p)
	}
	for _, cut := range []int{1, len(whole) / 2} {
		code := append([]byte(nil), whole...)
		clear(code[cut:])
		stamps, p := read(code)
		if msg, _ := p.(string); !strings.Contains(msg, "past its chunk's last bit") {
			t.Errorf("zeros from byte %d of %d: %d stamps read, then %v", cut, len(code), len(stamps), p)
		}
	}
}

package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/cache"
	"cmpqos/internal/parallel"
	"cmpqos/internal/stats"
	"cmpqos/internal/steal"
	"cmpqos/internal/workload"
)

// mapMeasure fans infallible measurement jobs across the option's worker
// bound (these ablations drive the cache model directly rather than
// through sim.Config, so they cannot use sim.RunAll). It fails when the
// options' context ends the sweep, or with a measurement's panic.
func mapMeasure(o Options, n int, fn func(i int) float64) ([]float64, error) {
	return parallel.Map(o.ctx(), parallel.New(o.Workers), n, func(i int) (float64, error) {
		return fn(i), nil
	})
}

// AblationPartitionResult quantifies §4.1's argument for per-set over
// global partitioning: under the global scheme, the distribution of a
// job's blocks across sets depends on its co-runners, so the same job
// with the same allocation shows larger run-to-run miss-rate variation.
type AblationPartitionResult struct {
	Runs      int
	PerSetCoV float64
	GlobalCoV float64
	PerSet    stats.Summary
	Global    stats.Summary
}

// AblationPartition runs a bzip2 job at a fixed 7-way allocation against
// co-runners whose access patterns vary run to run, under both schemes.
func AblationPartition(o Options) (*AblationPartitionResult, error) {
	const runs = 8
	cfg := cache.PaperL2()
	target := workload.MustByName("bzip2")
	coRunners := []string{"mcf", "milc", "gcc", "libquantum", "soplex", "sjeng", "hmmer", "astar"}

	measure := func(global bool, seed int64) float64 {
		var c cache.Interface
		var missRatio func(int) float64
		if global {
			g := cache.NewGlobal(cfg)
			g.SetTargetWays(0, 7)
			g.SetTargetWays(1, 7)
			c = g
			missRatio = g.MissRatio
		} else {
			p := cache.NewPartitioned(cfg)
			p.SetTarget(0, 7)
			p.SetTarget(1, 7)
			p.SetClass(0, cache.ClassReserved)
			p.SetClass(1, cache.ClassReserved)
			c = p
			missRatio = p.MissRatio
		}
		job := target.NewStream(7, 0) // the job itself is identical every run
		co := workload.MustByName(coRunners[seed%int64(len(coRunners))]).NewStream(seed, 1)
		const n = 400_000
		for i := 0; i < n; i++ {
			c.Access(0, job.Next())
			c.Access(1, co.Next())
		}
		c.ResetStats()
		for i := 0; i < n; i++ {
			c.Access(0, job.Next())
			c.Access(1, co.Next())
		}
		return missRatio(0)
	}

	res := &AblationPartitionResult{Runs: runs}
	// Even indices are per-set runs, odd are global; the summaries are
	// filled in the historical serial order afterwards.
	vals, err := mapMeasure(o, 2*runs, func(i int) float64 {
		return measure(i%2 == 1, int64(i/2)+o.Seed)
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-partition: %w", err)
	}
	for s := 0; s < runs; s++ {
		res.PerSet.Add(vals[2*s])
		res.Global.Add(vals[2*s+1])
	}
	res.PerSetCoV = res.PerSet.CoV()
	res.GlobalCoV = res.Global.CoV()
	return res, nil
}

// Render prints the comparison.
func (r *AblationPartitionResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation §4.1 — run-to-run miss-rate variation of one job (bzip2, 7 ways)")
	fmt.Fprintf(w, "across %d runs with different co-runners:\n", r.Runs)
	fmt.Fprintf(w, "  per-set partitioning: mean miss %.3f, CoV %.4f\n", r.PerSet.Mean(), r.PerSetCoV)
	fmt.Fprintf(w, "  global partitioning:  mean miss %.3f, CoV %.4f\n", r.Global.Mean(), r.GlobalCoV)
	if r.PerSetCoV < 1e-6 {
		fmt.Fprintln(w, "per-set partitioning shows no measurable run-to-run variation (perfect")
		fmt.Fprintln(w, "isolation), while the global scheme's miss rate moves with its co-runner —")
	} else {
		fmt.Fprintf(w, "global/per-set variability ratio: %.1f× —\n", r.GlobalCoV/r.PerSetCoV)
	}
	fmt.Fprintln(w, "exactly the variation for which the paper rejects the global scheme (§4.1)")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// AblationSamplingRow is one sampling-ratio point.
type AblationSamplingRow struct {
	Every    int
	Estimate float64
	Error    float64 // relative to full coverage
}

// AblationSamplingResult quantifies §4.3's set-sampling design choice:
// how accurately a 1-in-N duplicate tag array estimates the excess miss
// ratio that full duplicate tags would measure.
type AblationSamplingResult struct {
	Full float64
	Rows []AblationSamplingRow
}

// AblationSampling measures the estimate across sampling ratios for a
// bzip2 job stolen from 7 ways down to 3.
func AblationSampling(o Options) (*AblationSamplingResult, error) {
	cfg := cache.PaperL2()
	p := workload.MustByName("bzip2")
	measure := func(every int) float64 {
		main := cache.NewPartitioned(cfg)
		main.SetTarget(0, 3) // stolen down to 3 ways
		main.SetClass(0, cache.ClassReserved)
		st := cache.NewShadowTags(cfg, every)
		st.SetTarget(0, 7) // original allocation
		st.SetClass(0, cache.ClassReserved)
		stream := p.NewStream(o.Seed+13, 0)
		const n = 1_200_000
		for i := 0; i < n; i++ {
			a := stream.Next()
			st.Observe(0, a, main.Access(0, a))
		}
		return steal.ExcessMissRatio(st.MainMisses(0), st.ShadowMisses(0))
	}
	everies := []int{1, 2, 4, 8, 16, 32}
	vals, err := mapMeasure(o, len(everies), func(i int) float64 {
		return measure(everies[i])
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-sampling: %w", err)
	}
	res := &AblationSamplingResult{Full: vals[0]}
	for i, every := range everies[1:] {
		est := vals[i+1]
		res.Rows = append(res.Rows, AblationSamplingRow{
			Every:    every,
			Estimate: est,
			Error:    safeDiv(est-res.Full, res.Full),
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationSamplingResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation §4.3 — duplicate-tag set sampling accuracy (bzip2, 7→3 ways)")
	fmt.Fprintf(w, "full duplicate tags measure excess-miss ratio %.3f\n", r.Full)
	fmt.Fprintln(w, "sample-every   estimate   relative-error")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%12d  %9.3f  %13.1f%%\n", row.Every, row.Estimate, row.Error*100)
	}
	fmt.Fprintln(w, "(the paper samples every 8th set)")
}

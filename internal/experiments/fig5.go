package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// Fig5Cell is one (workload, configuration) outcome.
type Fig5Cell struct {
	Workload   string
	Policy     sim.Policy
	HitRate    float64
	Total      int64
	Normalized float64 // throughput normalized to All-Strict (≥1 is faster)
}

// Fig5Result reproduces Figure 5: deadline hit rates (a) and normalized
// job throughput (b) for the three single-benchmark workloads across the
// five Table 2 configurations.
type Fig5Result struct {
	Cells []Fig5Cell
}

// Fig5 runs the 3×5 sweep, fanning the 15 independent runs across
// o.Workers goroutines.
func Fig5(o Options) (*Fig5Result, error) {
	benches := []string{"gobmk", "hmmer", "bzip2"}
	pols := sim.Policies()
	var cfgs []sim.Config
	for _, bench := range benches {
		comp := workload.Single(bench)
		for _, pol := range pols {
			cfgs = append(cfgs, o.config(pol, comp))
		}
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	res := &Fig5Result{}
	k := 0
	for _, bench := range benches {
		var base *sim.Report
		for _, pol := range pols {
			rep := reps[k]
			k++
			if pol == sim.AllStrict {
				base = rep
			}
			res.Cells = append(res.Cells, Fig5Cell{
				Workload:   bench,
				Policy:     pol,
				HitRate:    rep.DeadlineHitRate,
				Total:      rep.TotalCycles,
				Normalized: rep.Speedup(base),
			})
		}
	}
	return res, nil
}

// Render prints both panels.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5(a) — deadline hit rate (Strict+Elastic jobs; all jobs for EqualPart)")
	r.renderPanel(w, func(c Fig5Cell) string { return pct(c.HitRate) })
	fmt.Fprintln(w, "\nFigure 5(b) — job throughput normalized to All-Strict (higher is better)")
	r.renderPanel(w, func(c Fig5Cell) string { return fmt.Sprintf("%.2f", c.Normalized) })
	fmt.Fprintln(w, "\ntotal wall-clock cycles to complete the ten accepted jobs:")
	r.renderPanel(w, func(c Fig5Cell) string { return mcycles(c.Total) })
}

func (r *Fig5Result) renderPanel(w io.Writer, f func(Fig5Cell) string) {
	fmt.Fprintf(w, "%-22s", "")
	for _, bench := range []string{"gobmk", "hmmer", "bzip2"} {
		fmt.Fprintf(w, "%10s", bench)
	}
	fmt.Fprintln(w)
	for _, pol := range sim.Policies() {
		fmt.Fprintf(w, "%-22s", pol.String())
		for _, bench := range []string{"gobmk", "hmmer", "bzip2"} {
			if c, ok := r.Cell(bench, pol); ok {
				fmt.Fprintf(w, "%10s", f(c))
			}
		}
		fmt.Fprintln(w)
	}
}

// Cell returns the (workload, policy) cell.
func (r *Fig5Result) Cell(bench string, pol sim.Policy) (Fig5Cell, bool) {
	for _, c := range r.Cells {
		if c.Workload == bench && c.Policy == pol {
			return c, true
		}
	}
	return Fig5Cell{}, false
}

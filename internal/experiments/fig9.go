package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// Fig9Cell is one (mix, configuration) outcome.
type Fig9Cell struct {
	Mix        string
	Policy     sim.Policy
	HitRate    float64
	Total      int64
	Normalized float64
}

// Fig9Result reproduces Figure 9: deadline hit rates (a) and normalized
// throughput (b) for the Table 3 mixed-benchmark workloads. The paper's
// headline: Hybrid-2 reaches +47% for Mix-1 (favourable to stealing) and
// +39% for Mix-2, while EqualPart misses most deadlines.
type Fig9Result struct {
	Cells []Fig9Cell
}

// Fig9 runs the 2×5 sweep, fanning the 10 independent runs across
// o.Workers goroutines.
func Fig9(o Options) (*Fig9Result, error) {
	mixes := []workload.Composition{workload.Mix1(), workload.Mix2()}
	pols := sim.Policies()
	var cfgs []sim.Config
	for _, mix := range mixes {
		for _, pol := range pols {
			cfgs = append(cfgs, o.config(pol, mix))
		}
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	res := &Fig9Result{}
	k := 0
	for _, mix := range mixes {
		var base *sim.Report
		for _, pol := range pols {
			rep := reps[k]
			k++
			if pol == sim.AllStrict {
				base = rep
			}
			res.Cells = append(res.Cells, Fig9Cell{
				Mix:        mix.Name,
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
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9(a) — deadline hit rate, mixed-benchmark workloads")
	r.renderPanel(w, func(c Fig9Cell) string { return pct(c.HitRate) })
	fmt.Fprintln(w, "\nFigure 9(b) — throughput normalized to the respective All-Strict")
	r.renderPanel(w, func(c Fig9Cell) string { return fmt.Sprintf("%.2f", c.Normalized) })
}

func (r *Fig9Result) renderPanel(w io.Writer, f func(Fig9Cell) string) {
	fmt.Fprintf(w, "%-22s%10s%10s\n", "", "Mix-1", "Mix-2")
	for _, pol := range sim.Policies() {
		fmt.Fprintf(w, "%-22s", pol.String())
		for _, mix := range []string{"Mix-1", "Mix-2"} {
			if c, ok := r.Cell(mix, pol); ok {
				fmt.Fprintf(w, "%10s", f(c))
			}
		}
		fmt.Fprintln(w)
	}
}

// Cell returns the (mix, policy) cell.
func (r *Fig9Result) Cell(mix string, pol sim.Policy) (Fig9Cell, bool) {
	for _, c := range r.Cells {
		if c.Mix == mix && c.Policy == pol {
			return c, true
		}
	}
	return Fig9Cell{}, false
}

package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// Fig7Result reproduces Figure 7: the execution trace of the ten
// accepted bzip2 jobs under All-Strict versus All-Strict+AutoDown. The
// paper reports 3883 M cycles vs 3451 M cycles (an 11% improvement) with
// five jobs automatically downgraded, of which four switch back to
// Strict before completing.
type Fig7Result struct {
	StrictTotal   int64
	AutoTotal     int64
	Downgraded    int
	SwitchedBack  int
	StrictGantt   string
	AutoGantt     string
	StrictHitRate float64
	AutoHitRate   float64
}

// Fig7 runs both configurations.
func Fig7(o Options) (*Fig7Result, error) {
	reps, err := o.runAll([]sim.Config{
		o.config(sim.AllStrict, workload.Single("bzip2")),
		o.config(sim.AllStrictAutoDown, workload.Single("bzip2")),
	})
	if err != nil {
		return nil, err
	}
	strict, auto := reps[0], reps[1]
	res := &Fig7Result{
		StrictTotal:   strict.TotalCycles,
		AutoTotal:     auto.TotalCycles,
		StrictGantt:   strict.Gantt(72),
		AutoGantt:     auto.Gantt(72),
		StrictHitRate: strict.DeadlineHitRate,
		AutoHitRate:   auto.DeadlineHitRate,
	}
	for _, j := range auto.Jobs {
		if j.AutoDowngraded {
			res.Downgraded++
			if j.SwitchedBack {
				res.SwitchedBack++
			}
		}
	}
	return res, nil
}

// Render prints both traces.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 7(a) — All-Strict: ten bzip2 jobs complete in %s cycles (hit rate %s)\n",
		mcycles(r.StrictTotal), pct(r.StrictHitRate))
	fmt.Fprint(w, r.StrictGantt)
	fmt.Fprintf(w, "\nFigure 7(b) — All-Strict+AutoDown: %s cycles (hit rate %s)\n",
		mcycles(r.AutoTotal), pct(r.AutoHitRate))
	fmt.Fprintf(w, "%d jobs automatically downgraded; %d of them switched back to Strict\n",
		r.Downgraded, r.SwitchedBack)
	fmt.Fprint(w, r.AutoGantt)
	fmt.Fprintf(w, "\nAutoDown improvement: %.0f%% (paper: 3883M → 3451M, 11%%)\n",
		(1-float64(r.AutoTotal)/float64(r.StrictTotal))*100)
}

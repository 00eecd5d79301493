package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// EngineRow compares one configuration across execution engines.
type EngineRow struct {
	Policy       sim.Policy
	TableHit     float64
	TraceHit     float64
	TableSpeedup float64 // vs All-Strict, same engine
	TraceSpeedup float64
}

// EnginesResult is the cross-engine validation: the fast calibrated
// table engine and the trace-driven cache engine must agree on every
// qualitative claim — 100% reserved-job hit rates under the QoS
// configurations, low EqualPart hit rates, and the same ordering of
// normalized throughputs. Agreement here is what justifies running the
// paper-scale figures on the table engine.
type EnginesResult struct {
	Workload string
	Rows     []EngineRow
}

// Engines runs the five configurations under both engines on the bzip2
// workload (trace runs are scaled; normalization is within-engine, so
// the comparison is scale-free).
func Engines(o Options) (*EnginesResult, error) {
	comp := workload.Single("bzip2")
	res := &EnginesResult{Workload: comp.Name}
	pols := sim.Policies()
	// The table side runs at the table engine's own scale whatever
	// -engine says: both engines run here, each as itself.
	table := o
	table.Engine = sim.EngineTable
	var cfgs []sim.Config
	for _, pol := range pols {
		tcfg := table.config(pol, comp)
		rcfg := sim.TraceConfig(pol, comp)
		if o.Seed != 0 {
			rcfg.Seed = o.Seed
		}
		cfgs = append(cfgs, tcfg, rcfg)
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("engines: %w", err)
	}
	var tableBase, traceBase int64
	for i, pol := range pols {
		tableRep, traceRep := reps[2*i], reps[2*i+1]
		if pol == sim.AllStrict {
			tableBase = tableRep.TotalCycles
			traceBase = traceRep.TotalCycles
		}
		res.Rows = append(res.Rows, EngineRow{
			Policy:       pol,
			TableHit:     tableRep.DeadlineHitRate,
			TraceHit:     traceRep.DeadlineHitRate,
			TableSpeedup: float64(tableBase) / float64(tableRep.TotalCycles),
			TraceSpeedup: float64(traceBase) / float64(traceRep.TotalCycles),
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r *EnginesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Validation — table vs trace engine agreement (%s workload)\n", r.Workload)
	fmt.Fprintln(w, "configuration          hit(table)  hit(trace)  speedup(table)  speedup(trace)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s %10s  %10s  %14.2f  %14.2f\n",
			row.Policy, pct(row.TableHit), pct(row.TraceHit),
			row.TableSpeedup, row.TraceSpeedup)
	}
	fmt.Fprintln(w, "\nagreement on the guarantees and the throughput ordering is what")
	fmt.Fprintln(w, "justifies running the paper-scale figures on the fast table engine.")
}

// Table exports the comparison.
func (r *EnginesResult) Table() [][]string {
	rows := [][]string{{"policy", "hit_table", "hit_trace", "speedup_table", "speedup_trace"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy.String(), ftoa(row.TableHit), ftoa(row.TraceHit),
			ftoa(row.TableSpeedup), ftoa(row.TraceSpeedup),
		})
	}
	return rows
}

package experiments

import (
	"fmt"
	"io"
	"strconv"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// PoliciesRow is one pipeline combination's end-to-end outcome.
type PoliciesRow struct {
	Scheduler string
	Allocator string
	HitRate   float64
	Total     int64
	// Normalized is throughput relative to the default pipeline
	// (reserved scheduler, reserved allocator) — the combination the
	// paper's figures run.
	Normalized float64
	Frag       sim.Fragmentation
	Terminated int
}

// PoliciesResult compares pipeline combinations on the same
// admission-controlled workload: how much of the QoS framework's
// behaviour is the *policy* choice rather than the framework. The
// reserved/reserved row is the paper's configuration; packed scheduling
// trades Opportunistic balance for reserved headroom, and the ucp
// allocator overrides reservations with utility-maximizing partitions —
// recovering throughput exactly where it forfeits the guarantee.
type PoliciesResult struct {
	Policy   sim.Policy
	Workload string
	Rows     []PoliciesRow
}

// policyGrid is the scheduler×allocator sweep the experiment runs.
var policyGrid = []struct{ sched, alloc string }{
	{"reserved", "reserved"},
	{"reserved", "ucp"},
	{"packed", "reserved"},
	{"packed", "ucp"},
}

// PoliciesExp sweeps every scheduler×allocator combination
// under Hybrid-2 on the Mix-1 workload (the configuration with all
// three execution modes live, so every pipeline stage matters).
func PoliciesExp(o Options) (*PoliciesResult, error) {
	res := &PoliciesResult{Policy: sim.Hybrid2, Workload: "Mix-1"}
	cfgs := make([]sim.Config, 0, len(policyGrid))
	for _, g := range policyGrid {
		cfg := o.config(sim.Hybrid2, workload.Mix1())
		cfg.Scheduler = g.sched
		cfg.Allocator = g.alloc
		cfgs = append(cfgs, cfg)
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("policies: %w", err)
	}
	base := reps[0].TotalCycles
	for i, rep := range reps {
		res.Rows = append(res.Rows, PoliciesRow{
			Scheduler:  policyGrid[i].sched,
			Allocator:  policyGrid[i].alloc,
			HitRate:    rep.DeadlineHitRate,
			Total:      rep.TotalCycles,
			Normalized: float64(base) / float64(rep.TotalCycles),
			Frag:       rep.Frag,
			Terminated: rep.Terminated,
		})
	}
	return res, nil
}

// Render prints the comparison table.
func (r *PoliciesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Policy pipeline — scheduler×allocator sweep (%v, %s workload)\n", r.Policy, r.Workload)
	fmt.Fprintln(w, "scheduler  allocator   hit-rate  total(Mcyc)  norm-tput  int-ways")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-10s %8s %12s %9.2f %8.1f%%\n",
			row.Scheduler, row.Allocator, pct(row.HitRate),
			mcycles(row.Total), row.Normalized, row.Frag.InternalWays*100)
	}
	fmt.Fprintln(w, "\nreading: reserved/reserved is the paper's pipeline. The ucp allocator")
	fmt.Fprintln(w, "overrides reservations with utility-maximizing partitions — throughput")
	fmt.Fprintln(w, "where the guarantee was; packed scheduling piles Opportunistic jobs onto")
	fmt.Fprintln(w, "fewer cores, keeping the rest dark for the next reserved arrival.")
}

// Table exports the sweep.
func (r *PoliciesResult) Table() [][]string {
	rows := [][]string{{"scheduler", "allocator", "hit_rate", "total_cycles", "normalized_throughput", "internal_ways", "terminated"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheduler, row.Allocator, ftoa(row.HitRate),
			itoa(row.Total), ftoa(row.Normalized), ftoa(row.Frag.InternalWays),
			strconv.Itoa(row.Terminated),
		})
	}
	return rows
}

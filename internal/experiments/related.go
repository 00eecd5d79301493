package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/alloc"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// RelatedRow is one allocation policy's outcome on the 4-job co-schedule.
type RelatedRow struct {
	Policy        string
	Ways          alloc.Allocation
	TotalMPI      float64
	WeightedSpeed float64
	Unfairness    float64
	// GuaranteeMet reports whether the job with a QoS request (gobmk at
	// the paper's 7-way medium preset) actually received it.
	GuaranteeMet bool
}

// RelatedDynamicRow is one end-to-end policy outcome on the mixed
// workload.
type RelatedDynamicRow struct {
	Policy  string
	Total   int64
	HitRate float64
}

// RelatedResult contrasts the §2 related-work optimizers — equal
// partitioning (VPC-like), utility-based partitioning (Qureshi), fair
// partitioning (Kim) — against a reservation under the paper's
// framework, on a static 4-job co-schedule. The optimizers improve their
// own objectives but none honors the individual job's resource
// guarantee; the reservation does, by construction, at some cost to the
// aggregate — the paper's central trade-off.
type RelatedResult struct {
	Jobs []string
	Rows []RelatedRow
	// Dynamic runs the same contrast end to end: EqualPart, the dynamic
	// UCP repartitioner, and the paper's Hybrid-2 on a half-sensitive
	// workload.
	Dynamic []RelatedDynamicRow
}

// Related runs the comparison. The co-schedule is one job per core:
// three cache-hungry jobs plus gobmk, which carries a 7-way QoS request.
func Related(o Options) (*RelatedResult, error) {
	names := []string{"bzip2", "mcf", "soplex", "gobmk"}
	const qosJob = 3 // gobmk
	const qosWays = 7
	var demands []alloc.Demand
	for _, n := range names {
		demands = append(demands, alloc.Demand{Profile: workload.MustByName(n)})
	}
	totalWays := 16

	res := &RelatedResult{Jobs: names}
	add := func(policy string, ways alloc.Allocation) {
		m := alloc.Evaluate(demands, ways, totalWays)
		res.Rows = append(res.Rows, RelatedRow{
			Policy:        policy,
			Ways:          ways,
			TotalMPI:      m.TotalMPI,
			WeightedSpeed: m.WeightedSpeed,
			Unfairness:    m.Unfairness(),
			GuaranteeMet:  ways[qosJob] >= qosWays,
		})
	}
	add("EqualPart (VPC-like)", alloc.Equal(demands, totalWays))
	add("UCP (Qureshi)", alloc.UCP(demands, totalWays))
	add("Fair (Kim)", alloc.Fair(demands, totalWays))
	// The paper's framework: gobmk's 7-way reservation is carved out
	// first; the remainder is scavenged by the other (opportunistic)
	// jobs — split evenly here, as the leftover pool is.
	reserved := make(alloc.Allocation, len(names))
	reserved[qosJob] = qosWays
	others := alloc.Equal(demands[:qosJob], totalWays-qosWays)
	copy(reserved, others)
	add("QoS reservation (this paper)", reserved)

	// End-to-end dynamic comparison on a 50/50 bzip2+gobmk workload.
	mix := workload.Composition{Name: "related-mix"}
	for i := 0; i < 10; i++ {
		b := "bzip2"
		if i%2 == 1 {
			b = "gobmk"
		}
		hint := workload.HintStrict
		switch i % 10 {
		case 1, 4, 7:
			hint = workload.HintElastic
		case 2, 5, 8:
			hint = workload.HintOpportunistic
		}
		mix.Jobs = append(mix.Jobs, workload.JobTemplate{Benchmark: b, Hint: hint})
	}
	pols := []sim.Policy{sim.EqualPart, sim.UCPPart, sim.Hybrid2}
	var cfgs []sim.Config
	for _, pol := range pols {
		cfgs = append(cfgs, o.config(pol, mix))
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("related dynamic: %w", err)
	}
	for i, pol := range pols {
		res.Dynamic = append(res.Dynamic, RelatedDynamicRow{
			Policy:  pol.String(),
			Total:   reps[i].TotalCycles,
			HitRate: reps[i].DeadlineHitRate,
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r *RelatedResult) Render(w io.Writer) {
	fmt.Fprintln(w, "§2 comparison — allocation optimizers vs a QoS reservation")
	fmt.Fprintf(w, "co-schedule: %v; gobmk carries a 7-way (medium preset) QoS request\n\n", r.Jobs)
	fmt.Fprintln(w, "policy                         ways           total-MPI  wspeedup  unfairness  7-way-guarantee")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-30s %-14v %9.5f  %8.3f  %10.2f  %v\n",
			row.Policy, row.Ways, row.TotalMPI, row.WeightedSpeed, row.Unfairness, row.GuaranteeMet)
	}
	fmt.Fprintln(w, "\nUCP minimizes total misses and Fair equalizes slowdowns, but only the")
	fmt.Fprintln(w, "reservation honors the individual job's capacity request — the paper's")
	fmt.Fprintln(w, "argument that optimizers alone cannot provide QoS (§2).")
	if len(r.Dynamic) > 0 {
		fmt.Fprintln(w, "\nend to end (ten-job 50/50 bzip2+gobmk workload):")
		fmt.Fprintln(w, "policy                 total(Mcyc)   deadline-hit-rate")
		for _, row := range r.Dynamic {
			fmt.Fprintf(w, "%-22s %11s  %17s\n", row.Policy, mcycles(row.Total), pct(row.HitRate))
		}
	}
}

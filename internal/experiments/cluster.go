package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/parallel"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// ClusterRow is one cluster-size point.
type ClusterRow struct {
	Nodes          int
	Jobs           int
	Accepted       int
	RejectedProbes int
	Makespan       int64
	HitRate        float64
	JobsPerGcycle  float64
}

// FleetRow is one dispatcher's fleet-level outcome at a fixed node
// count.
type FleetRow struct {
	Dispatcher    string
	Nodes         int
	Jobs          int
	Accepted      int
	Rejected      int
	Terminated    int
	Violations    int
	HitRate       float64
	Utilization   float64
	Makespan      int64
	JobsPerGcycle float64
	// EpochsStepped/EpochsSkipped are the fleet's engine counters: node
	// epochs executed one by one vs. fast-forwarded in closed form.
	EpochsStepped int64
	EpochsSkipped int64
}

// ClusterResult exercises the paper's Figure 2 working environment: a
// server of CMP nodes behind a Global Admission Controller. Scaling the
// node count with the job count should scale throughput near-linearly
// while the per-job QoS guarantee (100% reserved-job deadline hit rate)
// is preserved — the property that makes the GAC/LAC split composable.
// Fleet mode (Options.ClusterNodes > 0) instead holds the node count
// fixed and sweeps the registered dispatch policies, reporting
// fleet-level violation/utilization/rejection outcomes.
type ClusterResult struct {
	Rows  []ClusterRow
	Fleet []FleetRow
}

// Cluster sweeps 1, 2, and 4 nodes with 10 jobs per node (the legacy
// scaling table), or — when Options.ClusterNodes is set — runs the
// fleet dispatcher sweep at that node count. The nodes of one cluster
// share a clock behind one GAC, so a single run cannot be split across
// configurations; in fleet mode the workers instead shard
// the per-epoch node stepping inside each run.
func Cluster(o Options) (*ClusterResult, error) {
	if o.ClusterNodes > 0 {
		return clusterFleet(o)
	}
	sweep := []int{1, 2, 4}
	workers := o.Workers
	if workers == 0 {
		workers = 1
	}
	rows, err := parallel.Map(o.ctx(), parallel.New(workers), len(sweep), func(i int) (ClusterRow, error) {
		nodes := sweep[i]
		cfg := sim.ClusterConfig{
			Nodes:        nodes,
			Node:         o.config(sim.Hybrid2, workload.Single("bzip2")),
			AcceptTarget: 10 * nodes,
		}
		cr, err := sim.NewCluster(cfg)
		if err != nil {
			return ClusterRow{}, err
		}
		rep, err := cr.Run()
		if err != nil {
			return ClusterRow{}, fmt.Errorf("cluster %d nodes: %w", nodes, err)
		}
		return ClusterRow{
			Nodes:          nodes,
			Jobs:           cfg.AcceptTarget,
			Accepted:       rep.Accepted,
			RejectedProbes: rep.RejectedProbes,
			Makespan:       rep.TotalCycles,
			HitRate:        rep.DeadlineHitRate,
			JobsPerGcycle:  float64(rep.Accepted) / (float64(rep.TotalCycles) / 1e9),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Rows: rows}, nil
}

// clusterFleet runs the fleet dispatcher sweep: one cluster simulation
// per dispatcher at the configured node count, stepping nodes on the
// options' worker bound (output is worker-count independent).
func clusterFleet(o Options) (*ClusterResult, error) {
	names := []string{o.Dispatch}
	if o.Dispatch == "" {
		names = sim.DispatcherNames()
	}
	jobs := o.ClusterJobs
	if jobs <= 0 {
		jobs = 10 * o.ClusterNodes
	}
	workers := o.Workers
	if workers == 0 {
		workers = 1
	}
	res := &ClusterResult{}
	for _, name := range names {
		cfg := sim.ClusterConfig{
			Nodes:        o.ClusterNodes,
			Node:         o.config(sim.Hybrid2, workload.Single("bzip2")),
			AcceptTarget: jobs,
			Dispatcher:   name,
		}
		cr, err := sim.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := cr.RunParallel(o.ctx(), workers)
		if err != nil {
			return nil, fmt.Errorf("fleet %s on %d nodes: %w", name, o.ClusterNodes, err)
		}
		res.Fleet = append(res.Fleet, FleetRow{
			Dispatcher:    rep.Dispatcher,
			Nodes:         rep.Nodes,
			Jobs:          jobs,
			Accepted:      rep.Accepted,
			Rejected:      rep.RejectedProbes,
			Terminated:    rep.Terminated,
			Violations:    rep.Violations,
			HitRate:       rep.DeadlineHitRate,
			Utilization:   rep.Utilization,
			Makespan:      rep.TotalCycles,
			JobsPerGcycle: float64(rep.Accepted) / (float64(rep.TotalCycles) / 1e9),
			EpochsStepped: rep.EpochsStepped,
			EpochsSkipped: rep.EpochsSkipped,
		})
	}
	return res, nil
}

// Render prints the scaling table, or the fleet sweep in fleet mode.
func (r *ClusterResult) Render(w io.Writer) {
	if len(r.Fleet) > 0 {
		fmt.Fprintf(w, "Fleet sweep — GAC dispatch policies over %d CMP nodes (Hybrid-2, bzip2, %d jobs)\n",
			r.Fleet[0].Nodes, r.Fleet[0].Jobs)
		fmt.Fprintln(w, "dispatcher   accepted   rejected   violations   hit-rate   utilization   makespan   jobs/Gcyc   epochs-skipped")
		for _, row := range r.Fleet {
			skip := "-"
			if total := row.EpochsStepped + row.EpochsSkipped; total > 0 {
				skip = fmt.Sprintf("%d (%.0f%%)", row.EpochsSkipped,
					100*float64(row.EpochsSkipped)/float64(total))
			}
			fmt.Fprintf(w, "%-10s  %9d  %9d  %11d  %8s  %11.4f  %9s  %10.2f   %s\n",
				row.Dispatcher, row.Accepted, row.Rejected, row.Violations,
				pct(row.HitRate), row.Utilization, mcycles(row.Makespan), row.JobsPerGcycle, skip)
		}
		return
	}
	fmt.Fprintln(w, "Figure 2 environment — GAC over N CMP nodes (Hybrid-2, bzip2, 10 jobs/node)")
	fmt.Fprintln(w, "nodes   jobs   accepted   rejected-probes   makespan   hit-rate   jobs/Gcyc")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5d  %5d  %9d  %16d  %9s  %8s  %10.2f\n",
			row.Nodes, row.Jobs, row.Accepted, row.RejectedProbes,
			mcycles(row.Makespan), pct(row.HitRate), row.JobsPerGcycle)
	}
	if n := len(r.Rows); n >= 2 {
		first, last := r.Rows[0], r.Rows[n-1]
		scale := last.JobsPerGcycle / first.JobsPerGcycle
		fmt.Fprintf(w, "\nthroughput scaling %d→%d nodes: %.2f× (ideal %.0f×), guarantees intact\n",
			first.Nodes, last.Nodes, scale, float64(last.Nodes)/float64(first.Nodes))
	}
}

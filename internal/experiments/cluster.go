package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// FleetRow is one fleet's outcome: a node count under one dispatcher.
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
// Holding the node count fixed instead compares the dispatch strategies'
// fleet-level violation/utilization/rejection outcomes.
type ClusterResult struct {
	Fleet []FleetRow
}

// Cluster runs one fleet per (node count, dispatcher): by default 1, 2
// and 4 nodes under bestfit, or with Options.ClusterNodes set that node
// count under every strategy. Options.Dispatch narrows the dispatchers
// to one, and Options.ClusterJobs sets every fleet's accept target
// (0 = 10 jobs per node). The nodes of one cluster share a clock behind
// one GAC, so a single run cannot be split across configurations; the
// workers instead shard the per-epoch node stepping inside each run
// (output is worker-count independent).
func Cluster(o Options) (*ClusterResult, error) {
	sizes := []int{1, 2, 4}
	names := []string{"bestfit"}
	if o.ClusterNodes > 0 {
		sizes, names = []int{o.ClusterNodes}, qos.StrategyNames()
	}
	if o.Dispatch != "" {
		names = []string{o.Dispatch}
	}
	res := &ClusterResult{}
	for _, nodes := range sizes {
		jobs := o.ClusterJobs
		if jobs <= 0 {
			jobs = 10 * nodes
		}
		for _, name := range names {
			cfg := sim.ClusterConfig{
				Nodes:        nodes,
				Node:         o.config(sim.Hybrid2, workload.Single("bzip2")),
				AcceptTarget: jobs,
				Dispatcher:   name,
			}
			cr, err := sim.NewCluster(cfg)
			if err != nil {
				return nil, err
			}
			rep, err := cr.RunParallel(o.ctx(), o.Workers)
			if err != nil {
				return nil, fmt.Errorf("fleet %s on %d nodes: %w", name, nodes, err)
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
	}
	return res, nil
}

// Render prints the fleet table. One node count is stated in the title;
// several get a nodes column and the throughput-scaling line.
func (r *ClusterResult) Render(w io.Writer) {
	first, last := r.Fleet[0], r.Fleet[len(r.Fleet)-1]
	scaling := first.Nodes != last.Nodes
	col := ""
	if scaling {
		jobs := fmt.Sprintf("%d jobs", first.Jobs)
		if last.Jobs != first.Jobs {
			jobs = fmt.Sprintf("%d jobs/node", first.Jobs/first.Nodes)
		}
		fmt.Fprintf(w, "Figure 2 environment — GAC over N CMP nodes (Hybrid-2, bzip2, %s)\n", jobs)
		col = "nodes  "
	} else {
		fmt.Fprintf(w, "Fleet sweep — GAC dispatch policies over %d CMP nodes (Hybrid-2, bzip2, %d jobs)\n",
			first.Nodes, first.Jobs)
	}
	fmt.Fprintln(w, col+"dispatcher   accepted   rejected   violations   hit-rate   utilization   makespan   jobs/Gcyc   epochs-skipped")
	for _, row := range r.Fleet {
		skip := "-"
		if total := row.EpochsStepped + row.EpochsSkipped; total > 0 {
			skip = fmt.Sprintf("%d (%.0f%%)", row.EpochsSkipped,
				100*float64(row.EpochsSkipped)/float64(total))
		}
		if scaling {
			fmt.Fprintf(w, "%5d  ", row.Nodes)
		}
		fmt.Fprintf(w, "%-10s  %9d  %9d  %11d  %8s  %11.4f  %9s  %10.2f   %s\n",
			row.Dispatcher, row.Accepted, row.Rejected, row.Violations,
			pct(row.HitRate), row.Utilization, mcycles(row.Makespan), row.JobsPerGcycle, skip)
	}
	if scaling {
		scale := last.JobsPerGcycle / first.JobsPerGcycle
		fmt.Fprintf(w, "\nthroughput scaling %d→%d nodes: %.2f× (ideal %.0f×), guarantees intact\n",
			first.Nodes, last.Nodes, scale, float64(last.Nodes)/float64(first.Nodes))
	}
}

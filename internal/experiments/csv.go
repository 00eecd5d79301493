package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Tabular is implemented by experiment results that can export their
// data as machine-readable rows (header first).
type Tabular interface {
	Table() [][]string
}

// WriteCSV writes any tabular result as CSV.
func WriteCSV(w io.Writer, t Tabular) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	return cw.WriteAll(t.Table())
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }
func itoa(i int64) string   { return strconv.FormatInt(i, 10) }

// Table exports Figure 1.
func (r *Fig1Result) Table() [][]string {
	rows := [][]string{{"instances", "ways_each", "ipc", "target", "meets"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			strconv.Itoa(row.Instances), ftoa(row.WaysEach), ftoa(row.IPC),
			ftoa(row.Target), strconv.FormatBool(row.Meets),
		})
	}
	return rows
}

// Table exports Figure 4.
func (r *Fig4Result) Table() [][]string {
	rows := [][]string{{"benchmark", "group", "cpi_increase_7to1", "cpi_increase_7to4"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Benchmark, strconv.Itoa(int(row.Group)), ftoa(row.D7to1), ftoa(row.D7to4),
		})
	}
	return rows
}

// Table exports Table 1.
func (r *Table1Result) Table() [][]string {
	rows := [][]string{{"benchmark", "input", "miss_rate", "mpi", "paper_miss_rate", "paper_mpi"}}
	for _, row := range r.Rows {
		pp := r.Paper[row.Benchmark]
		rows = append(rows, []string{
			row.Benchmark, row.InputSet, ftoa(row.MissRate), ftoa(row.MPI),
			ftoa(pp[0]), ftoa(pp[1]),
		})
	}
	return rows
}

// Table exports Figure 5 (both panels).
func (r *Fig5Result) Table() [][]string {
	rows := [][]string{{"workload", "policy", "hit_rate", "total_cycles", "normalized_throughput"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Workload, c.Policy.String(), ftoa(c.HitRate), itoa(c.Total), ftoa(c.Normalized),
		})
	}
	return rows
}

// Table exports Figure 6.
func (r *Fig6Result) Table() [][]string {
	rows := [][]string{{"policy", "mode", "n", "avg_cycles", "min_cycles", "max_cycles"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy.String(), row.Mode, itoa(row.Wall.Count()),
			ftoa(row.Wall.Mean()), ftoa(row.Wall.Min()), ftoa(row.Wall.Max()),
		})
	}
	return rows
}

// Table exports Figure 8 (both panels).
func (r *Fig8Result) Table() [][]string {
	rows := [][]string{{"slack_pct", "miss_increase", "cpi_increase", "opp_wall_cycles", "opp_speedup"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			ftoa(row.SlackPct), ftoa(row.MissIncrease), ftoa(row.CPIIncrease),
			ftoa(row.OppWallClock), ftoa(row.OppSpeedup),
		})
	}
	return rows
}

// Table exports Figure 9 (both panels).
func (r *Fig9Result) Table() [][]string {
	rows := [][]string{{"mix", "policy", "hit_rate", "total_cycles", "normalized_throughput"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Mix, c.Policy.String(), ftoa(c.HitRate), itoa(c.Total), ftoa(c.Normalized),
		})
	}
	return rows
}

// Table exports the LAC characterization.
func (r *LACResult) Table() [][]string {
	rows := [][]string{{"probes_per_tw", "admission_tests", "total_cycles", "occupancy"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			ftoa(row.ProbesPerTw), itoa(row.Probes), itoa(row.Total), ftoa(row.Occupancy),
		})
	}
	return rows
}

// Table exports the cluster fleet table.
func (r *ClusterResult) Table() [][]string {
	rows := [][]string{{"dispatcher", "nodes", "jobs", "accepted", "rejected", "terminated",
		"violations", "hit_rate", "utilization", "makespan_cycles", "jobs_per_gcycle"}}
	for _, row := range r.Fleet {
		rows = append(rows, []string{
			row.Dispatcher, strconv.Itoa(row.Nodes), strconv.Itoa(row.Jobs),
			strconv.Itoa(row.Accepted), strconv.Itoa(row.Rejected), strconv.Itoa(row.Terminated),
			strconv.Itoa(row.Violations), ftoa(row.HitRate), ftoa(row.Utilization),
			itoa(row.Makespan), ftoa(row.JobsPerGcycle),
		})
	}
	return rows
}

// Table exports the §2 comparison.
func (r *RelatedResult) Table() [][]string {
	rows := [][]string{{"policy", "ways", "total_mpi", "weighted_speedup", "unfairness", "guarantee_met"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy, fmt.Sprint(row.Ways), ftoa(row.TotalMPI),
			ftoa(row.WeightedSpeed), ftoa(row.Unfairness), strconv.FormatBool(row.GuaranteeMet),
		})
	}
	return rows
}

package experiments

import (
	"fmt"
	"io"
	"sort"

	"cmpqos/internal/cache"
	"cmpqos/internal/cpu"
	"cmpqos/internal/mem"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// Fig4Row is one benchmark's sensitivity point: relative CPI increase
// when its L2 allocation shrinks from 7 ways to 1 and from 7 to 4.
type Fig4Row struct {
	Benchmark string
	Group     workload.Group
	D7to1     float64
	D7to4     float64
}

// Fig4Result reproduces the Figure 4 scatter (here as a sorted table):
// the fifteen SPEC2006 benchmarks classified into highly sensitive,
// moderately sensitive, and insensitive groups.
type Fig4Result struct {
	Rows []Fig4Row
}

// paperL2Alone is the paper's L2 with a single owner: one benchmark
// probed alone.
func paperL2Alone() cache.Config {
	cfg := cache.PaperL2()
	cfg.Owners = 1
	return cfg
}

// Fig4 measures the classification. The table engine evaluates the
// calibrated curves; the trace engine probes each benchmark's synthetic
// stream through the real partitioned cache.
func Fig4(o Options) (*Fig4Result, error) {
	res := &Fig4Result{}
	for _, p := range workload.Profiles() {
		var c7, c4, c1 float64
		if o.Engine == sim.EngineTrace {
			curve := p.ProbeCurve(paperL2Alone(), 250_000, 250_000)
			cpiAt := func(wy int) float64 {
				return cpu.CPI(p.CPIL1Inf, p.L2APA, p.L2APA*curve.At(wy), mem.BaseCycles)
			}
			c7, c4, c1 = cpiAt(7), cpiAt(4), cpiAt(1)
		} else {
			c7 = p.CPI(7)
			c4 = p.CPI(4)
			c1 = p.CPI(1)
		}
		res.Rows = append(res.Rows, Fig4Row{
			Benchmark: p.Name,
			Group:     p.Group,
			D7to1:     (c1 - c7) / c7,
			D7to4:     (c4 - c7) / c7,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].D7to1 > res.Rows[j].D7to1 })
	return res, nil
}

// Render prints the table.
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 4 — sensitivity of each benchmark to cache capacity")
	fmt.Fprintln(w, "benchmark    CPI+ (7→1 ways)  CPI+ (7→4 ways)  group")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %15.1f%% %15.1f%%  %d (%s)\n",
			row.Benchmark, row.D7to1*100, row.D7to4*100, int(row.Group), row.Group)
	}
}

// Table1Row is one representative benchmark's operating point at the
// requested 7-way allocation.
type Table1Row struct {
	Benchmark string
	InputSet  string
	MissRate  float64
	MPI       float64
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Rows []Table1Row
	// Paper values for side-by-side comparison.
	Paper map[string][2]float64
}

// Table1 measures the three representative benchmarks at 7 ways.
func Table1(o Options) (*Table1Result, error) {
	res := &Table1Result{Paper: map[string][2]float64{
		"bzip2": {0.20, 0.0055},
		"hmmer": {0.17, 0.001},
		"gobmk": {0.24, 0.004},
	}}
	for _, name := range []string{"bzip2", "hmmer", "gobmk"} {
		p := workload.MustByName(name)
		var mr float64
		if o.Engine == sim.EngineTrace {
			mr = p.ProbeRatio(paperL2Alone(), o.Seed+42, 0, 7, 300_000, 300_000)
		} else {
			mr = p.MissRatio(7)
		}
		res.Rows = append(res.Rows, Table1Row{
			Benchmark: name,
			InputSet:  p.InputSet,
			MissRate:  mr,
			MPI:       p.L2APA * mr,
		})
	}
	return res, nil
}

// Render prints the table with the paper's values alongside.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — benchmarks used as individual jobs (at 7 of 16 L2 ways)")
	fmt.Fprintln(w, "benchmark  input        L2-miss-rate (paper)   L2-MPI (paper)")
	for _, row := range r.Rows {
		pp := r.Paper[row.Benchmark]
		fmt.Fprintf(w, "%-10s %-12s %6.1f%%  (%4.0f%%)     %8.5f (%.4f)\n",
			row.Benchmark, row.InputSet, row.MissRate*100, pp[0]*100, row.MPI, pp[1])
	}
}

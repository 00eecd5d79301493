// Package experiments regenerates every table and figure of the paper's
// evaluation (§6–7). Each experiment returns a structured result and can
// render itself as a text table whose rows/series correspond to the
// published ones. The DESIGN.md per-experiment index maps each function
// here to its paper artifact.
package experiments

import (
	"context"
	"fmt"
	"io"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Context cancels in-flight simulations when it fires (nil =
	// background, never cancels). The CLIs wire their -timeout flag here.
	Context context.Context
	// Engine selects table (default) or trace execution.
	Engine sim.Engine
	// JobInstr overrides instructions per job (0 = the engine default:
	// the paper's 200 M for table runs, 8 M scaled for trace runs).
	JobInstr int64
	// Seed drives all pseudo-randomness.
	Seed int64
	// Workers bounds how many independent simulations a multi-run
	// experiment executes concurrently: 0 or 1 is serial, N > 1 uses at
	// most N goroutines, and a negative value uses one per CPU. Every
	// experiment renders byte-identical output at any setting — grids are
	// built in the same order as the historical serial loops, and reports
	// are collected in submission order.
	Workers int
	// Cache memoizes the simulations these options run (DESIGN §7.4): a
	// sweep that reads one grid several ways passes one cache to every
	// experiment, as qossim does. Nil runs every simulation.
	Cache *sim.RunCache
	// FaultRate and FaultSeed parameterize the faults experiment: events
	// per gigacycle and the plan generator seed. Zero rate means the
	// experiment sweeps its default rate grid.
	FaultRate float64
	FaultSeed int64
	// Scheduler and Allocator select sim pipeline policies by name for
	// every configuration the experiments build (empty strings keep the
	// policy-appropriate defaults). The CLIs wire their -sched/-alloc
	// flags here; sim.SchedulerNames and sim.AllocatorNames list the
	// names.
	Scheduler string
	Allocator string
	// Controller selects the feedback controller (sim.ControllerNames)
	// closing the loop over measured progress; empty keeps the static
	// open-loop default. The CLIs wire their -ctrl flags here.
	Controller string
	// ClusterNodes runs the cluster experiment at this node count under
	// every dispatch strategy instead of at 1, 2 and 4 nodes under
	// bestfit. ClusterJobs is every fleet's accept target (0 = 10 jobs
	// per node); Dispatch narrows the dispatchers to one qos.Strategy
	// name. The qossim -nodes/-jobs/-dispatch flags wire here.
	ClusterNodes int
	ClusterJobs  int
	Dispatch     string
}

// ctx resolves the options' context, defaulting to background.
func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// config builds a sim.Config for the options.
func (o Options) config(p sim.Policy, w workload.Composition) sim.Config {
	var cfg sim.Config
	if o.Engine == sim.EngineTrace {
		cfg = sim.TraceConfig(p, w)
	} else {
		cfg = sim.DefaultConfig(p, w)
	}
	if o.JobInstr > 0 {
		cfg.ScaleJobs(o.JobInstr)
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Scheduler = o.Scheduler
	cfg.Allocator = o.Allocator
	cfg.Controller = o.Controller
	return cfg
}

// run executes one configuration through the options' run cache.
func (o Options) run(cfg sim.Config) (*sim.Report, error) {
	return o.Cache.Run(o.ctx(), cfg)
}

// runAll executes a grid of configurations under the option's worker
// bound and returns the reports in input order, resolving each
// configuration through the options' run cache.
func (o Options) runAll(cfgs []sim.Config) ([]*sim.Report, error) {
	return sim.RunAll(o.ctx(), o.Workers, o.Cache, cfgs)
}

// Runner is a named experiment entry point for the CLI.
type Runner struct {
	Name  string
	Paper string // which table/figure it regenerates
	Run   func(o Options, w io.Writer) error
	// table runs the experiment for its CSV rows; nil when the result
	// has no tabular form.
	table func(o Options) (Tabular, error)
}

// entry adapts one experiment function to a registry row. CSV support
// is derived, not listed: a row can export a table exactly when its
// result type implements Tabular.
func entry[R interface{ Render(io.Writer) }](name, paper string, run func(Options) (R, error)) Runner {
	r := Runner{Name: name, Paper: paper, Run: func(o Options, w io.Writer) error {
		res, err := run(o)
		if err != nil {
			return err
		}
		res.Render(w)
		return nil
	}}
	var zero R
	if _, ok := any(zero).(Tabular); ok {
		r.table = func(o Options) (Tabular, error) {
			res, err := run(o)
			return any(res).(Tabular), err
		}
	}
	return r
}

// infallible lifts an experiment that cannot fail to entry's signature.
func infallible[R any](run func(Options) R) func(Options) (R, error) {
	return func(o Options) (R, error) { return run(o), nil }
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		entry("fig1", "Figure 1: bzip2 instances vs IPC target", Fig1),
		entry("fig3", "Figure 3: manual mode downgrade illustration", Fig3),
		entry("fig4", "Figure 4: cache sensitivity classification", Fig4),
		entry("table1", "Table 1: representative benchmark operating points", Table1),
		entry("curves", "Figure 4 / Table 1 input: L2 miss ratio vs ways, calibrated and traced", infallible(Curves)),
		entry("fig5", "Figure 5: deadline hit rate and throughput (single-benchmark)", Fig5),
		entry("fig6", "Figure 6: wall-clock time per mode (bzip2)", Fig6),
		entry("fig7", "Figure 7: execution trace All-Strict vs AutoDown (bzip2)", Fig7),
		entry("fig8", "Figure 8: resource stealing slack sweep", Fig8),
		entry("fig9", "Figure 9: mixed-benchmark workloads", Fig9),
		entry("lac", "§7.5: LAC characterization", LAC),
		entry("cluster", "Figure 2 environment: GAC scaling over CMP nodes", Cluster),
		entry("frag", "§7.1 decomposition: external vs internal fragmentation", Frag),
		entry("related", "§2 comparison: UCP/Fair optimizers vs QoS reservation", Related),
		entry("geometry", "Extension: L2 geometry sensitivity sweep", Geometry),
		entry("faults", "Robustness: QoS degradation under injected resource faults", Faults),
		entry("seeds", "Robustness: Figure 5 metrics across five seeds", Seeds),
		entry("engines", "Validation: table vs trace engine agreement", Engines),
		entry("sweep-slack", "Extension: Mix-1 slack sweep (favourable donor)", SweepSlack),
		entry("sweep-pressure", "Extension: arrival-pressure robustness sweep", SweepPressure),
		entry("policies", "Extension: pluggable pipeline scheduler×allocator sweep", PoliciesExp),
		entry("ablation-interval", "Ablation: resource-stealing repartitioning interval", Interval),
		entry("ablation-partition", "Ablation: per-set vs global partitioning variance (§4.1)", AblationPartition),
		entry("ablation-sampling", "Ablation: shadow-tag set-sampling accuracy (§4.3)", AblationSampling),
		entry("feedback", "Extension: closed-loop SLO control vs the static pipeline", Feedback),
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// CSVResult runs a named experiment and returns its tabular form, or
// an error when the experiment has no tabular export (fig3/fig7 are
// traces, the ablations are prose).
func CSVResult(name string, o Options) (Tabular, error) {
	if r, ok := Lookup(name); ok && r.table != nil {
		return r.table(o)
	}
	return nil, fmt.Errorf("experiments: %q has no CSV export", name)
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }

// mcycles formats cycles in millions.
func mcycles(c int64) string { return fmt.Sprintf("%.0fM", float64(c)/1e6) }

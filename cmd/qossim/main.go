// Command qossim regenerates the paper's tables and figures.
//
// Usage:
//
//	qossim -exp fig5                 # one experiment (table engine, paper scale)
//	qossim -exp all                  # every experiment
//	qossim -exp fig8 -engine trace   # trace-driven cache execution
//	qossim -exp fig7 -instr 20000000 # scaled-down jobs for quick runs
//	qossim -exp fig9 -parallel 8     # fan independent runs across 8 workers
//	qossim -exp all -parallel 0      # one worker per CPU
//	qossim -exp curves -csv          # one experiment as CSV
//	qossim -list                     # list experiments
//
// Multi-run experiments produce byte-identical tables at any -parallel
// setting; the flag only changes wall-clock time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cmpqos/internal/cli"
	"cmpqos/internal/experiments"
	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
)

const prog = "qossim"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on explicit arguments and streams: it returns the exit
// code instead of exiting, so a test can drive every flag in process
// and a failed experiment still flushes the deferred profile writers.
// Every usage error is found before a profile file is created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "experiment to run (see -list), or 'all'")
		engine    = fs.String("engine", "table", "execution engine: table or trace")
		instr     = fs.Int64("instr", 0, "instructions per job (0 = engine default)")
		seed      = fs.Int64("seed", 0, "random seed (0 = default)")
		parallel  = fs.Int("parallel", 1, "worker bound for independent simulation runs (0 = one per CPU)")
		list      = fs.Bool("list", false, "list available experiments")
		asCSV     = fs.Bool("csv", false, "emit machine-readable CSV instead of text tables")
		faultRate = fs.Float64("faults", 0, "fault rate in events per gigacycle for the faults experiment (0 = its default sweep)")
		faultSeed = fs.Int64("fault-seed", 0, "fault plan generator seed for the faults experiment (0 = default)")
		sched     = fs.String("sched", "", "core scheduler policy: "+cli.PolicyList(sim.SchedulerNames())+" (empty = policy default)")
		alloc     = fs.String("alloc", "", "L2 way allocator policy: "+cli.PolicyList(sim.AllocatorNames())+" (empty = policy default)")
		admit     = fs.String("admit", "", "admission placement policy: "+cli.PolicyList(sim.AdmissionNames())+" (empty = fcfs)")
		ctrl      = fs.String("ctrl", "", "feedback controller: "+cli.PolicyList(sim.ControllerNames())+" (empty = static, the open loop)")
		nodes     = fs.Int("nodes", 0, "cluster experiment: every dispatcher at this node count (0 = bestfit at 1, 2 and 4 nodes)")
		jobs      = fs.Int("jobs", 0, "cluster experiment: accepted jobs per fleet (0 = 10 per node)")
		dispatch  = fs.String("dispatch", "", "cluster experiment: only this dispatch strategy: "+cli.PolicyList(qos.StrategyNames()))
		timeout   = fs.Duration("timeout", 0, "abort the run after this long (e.g. 2m; 0 = no limit)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this path")
		memProf   = fs.String("memprofile", "", "write a heap profile (taken at exit) to this path")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
		return code
	}
	if err := sim.ValidateNames(*sched, *alloc, *admit, *ctrl, *dispatch); err != nil {
		return fail(cli.ExitUsage, err)
	}
	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-20s %s\n", r.Name, r.Paper)
		}
		if *list {
			return cli.ExitOK
		}
		return cli.ExitUsage
	}
	opts := experiments.Options{
		JobInstr:     *instr,
		Seed:         *seed,
		Workers:      *parallel,
		Cache:        sim.NewRunCache(), // fig6, fig7, frag and lac reuse fig5's runs
		FaultRate:    *faultRate,
		FaultSeed:    *faultSeed,
		Scheduler:    *sched,
		Allocator:    *alloc,
		Admission:    *admit,
		Controller:   *ctrl,
		ClusterNodes: *nodes,
		ClusterJobs:  *jobs,
		Dispatch:     *dispatch,
	}
	if *parallel == 0 {
		opts.Workers = -1 // flag value 0 means "all CPUs"
	}
	switch *engine {
	case "table":
		opts.Engine = sim.EngineTable
	case "trace":
		opts.Engine = sim.EngineTrace
	default:
		return fail(cli.ExitUsage, fmt.Errorf("unknown engine %q (table|trace)", *engine))
	}
	runners := experiments.Registry()
	if *exp != "all" {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			return fail(cli.ExitUsage, fmt.Errorf("unknown experiment %q; try -list", *exp))
		}
		runners = []experiments.Runner{r}
	} else if *asCSV {
		return fail(cli.ExitUsage, fmt.Errorf("-csv needs a single experiment name"))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(cli.ExitFailure, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "qossim:", err)
			}
			f.Close()
		}()
	}
	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	opts.Context = ctx

	if *asCSV {
		tab, err := experiments.CSVResult(*exp, opts)
		if err == nil {
			err = experiments.WriteCSV(stdout, tab)
		}
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		return cli.ExitOK
	}
	failed := runExperiments(runners, opts, stdout)
	for _, err := range failed {
		fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	}
	if len(failed) > 0 {
		return cli.ExitFailure
	}
	return cli.ExitOK
}

// runExperiments runs every runner in order and returns the failures,
// each prefixed with its experiment's name. A failure is also printed
// where the experiment's table would have been and the sweep carries
// on: under -exp all one experiment that rejects the options (the trace
// engine, say) must not hide the ones listed after it.
func runExperiments(runners []experiments.Runner, opts experiments.Options, w io.Writer) (failed []error) {
	for i, r := range runners {
		if i > 0 {
			fmt.Fprintln(w, "\n"+divider)
		}
		start := time.Now()
		if err := r.Run(opts, w); err != nil {
			fmt.Fprintf(w, "[%s failed: %v]\n", r.Name, err)
			failed = append(failed, fmt.Errorf("%s: %w", r.Name, err))
			continue
		}
		fmt.Fprintf(w, "[%s completed in %v]\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	return failed
}

const divider = "────────────────────────────────────────────────────────────────────"

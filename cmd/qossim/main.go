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

func main() { os.Exit(run()) }

// run is main behind its deferred profile writers: it returns the exit
// code instead of exiting, so a failed experiment still flushes them.
func run() int {
	var (
		exp       = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		engine    = flag.String("engine", "table", "execution engine: table or trace")
		instr     = flag.Int64("instr", 0, "instructions per job (0 = engine default)")
		seed      = flag.Int64("seed", 0, "random seed (0 = default)")
		parallel  = flag.Int("parallel", 1, "worker bound for independent simulation runs (0 = one per CPU)")
		list      = flag.Bool("list", false, "list available experiments")
		asCSV     = flag.Bool("csv", false, "emit machine-readable CSV instead of text tables")
		html      = flag.String("html", "", "write a single-file HTML report of ALL experiments to this path")
		faultRate = flag.Float64("faults", 0, "fault rate in events per gigacycle for the faults experiment (0 = its default sweep)")
		faultSeed = flag.Int64("fault-seed", 0, "fault plan generator seed for the faults experiment (0 = default)")
		sched     = flag.String("sched", "", "core scheduler policy: "+cli.PolicyList(sim.SchedulerNames())+" (empty = policy default)")
		alloc     = flag.String("alloc", "", "L2 way allocator policy: "+cli.PolicyList(sim.AllocatorNames())+" (empty = policy default)")
		admit     = flag.String("admit", "", "admission placement policy: "+cli.PolicyList(sim.AdmissionNames())+" (empty = fcfs)")
		ctrl      = flag.String("ctrl", "", "feedback controller: "+cli.PolicyList(sim.ControllerNames())+" (empty = static, the open loop)")
		nodes     = flag.Int("nodes", 0, "cluster experiment: every dispatcher at this node count (0 = bestfit at 1, 2 and 4 nodes)")
		jobs      = flag.Int("jobs", 0, "cluster experiment: accepted jobs per fleet (0 = 10 per node)")
		dispatch  = flag.String("dispatch", "", "cluster experiment: only this dispatch strategy: "+cli.PolicyList(qos.StrategyNames()))
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (e.g. 2m; 0 = no limit)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile (taken at exit) to this path")
	)
	flag.Parse()
	if err := sim.ValidateNames(*sched, *alloc, *admit, *ctrl, *dispatch); err != nil {
		cli.Usage(prog, "%v", err)
	}

	if *list || (*exp == "" && *html == "") {
		fmt.Println("available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Printf("  %-20s %s\n", r.Name, r.Paper)
		}
		if *exp == "" && *html == "" {
			return cli.ExitUsage
		}
		return cli.ExitOK
	}

	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	opts := experiments.Options{
		Context:      ctx,
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

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			cli.Fail(prog, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			cli.Fail(prog, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			cli.Fail(prog, err)
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qossim:", err)
			}
			f.Close()
		}()
	}
	switch *engine {
	case "table":
		opts.Engine = sim.EngineTable
	case "trace":
		opts.Engine = sim.EngineTrace
	default:
		cli.Usage(prog, "unknown engine %q (table|trace)", *engine)
	}

	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			cli.Fail(prog, err)
		}
		defer f.Close()
		if err := experiments.WriteHTML(f, opts); err != nil {
			cli.Fail(prog, err)
		}
		fmt.Printf("wrote %s\n", *html)
		return cli.ExitOK
	}

	if *asCSV {
		if *exp == "all" {
			cli.Usage(prog, "-csv needs a single experiment name")
		}
		tab, err := experiments.CSVResult(*exp, opts)
		if err != nil {
			cli.Fail(prog, err)
		}
		if err := experiments.WriteCSV(os.Stdout, tab); err != nil {
			cli.Fail(prog, err)
		}
		return cli.ExitOK
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.Registry()
	} else {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			cli.Usage(prog, "unknown experiment %q; try -list", *exp)
		}
		runners = []experiments.Runner{r}
	}
	failed := runExperiments(runners, opts, os.Stdout)
	for _, err := range failed {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
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

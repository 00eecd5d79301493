// Command qostrace runs one simulated CMP node and renders it: the
// report's summary, then a Figure-7-style execution trace. The workload
// is a benchmark, a mix, or a batch-job file (§3.2; format: cmd/qosctl),
// which runs with the file's core count and fault directives.
//
// Usage:
//
//	qostrace -policy autodown -workload bzip2
//	qostrace -policy hybrid2 -workload mix1 -width 100 -events
//	qostrace -policy hybrid2 -workload examples/jobs.qos -seeds 3
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cmpqos/internal/cli"
	"cmpqos/internal/jobfile"
	"cmpqos/internal/parallel"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

const prog = "qostrace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on explicit arguments and streams: it returns the exit
// code instead of exiting, so a test can drive every flag in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy    = fs.String("policy", "allstrict", "allstrict|hybrid1|hybrid2|autodown|equalpart")
		wl        = fs.String("workload", "bzip2", "benchmark name, mix1, mix2, or else the path of a job file")
		width     = fs.Int("width", 80, "gantt width in columns")
		instr     = fs.Int64("instr", 20_000_000, "instructions per job")
		seed      = fs.Int64("seed", 1, "random seed")
		seeds     = fs.Int("seeds", 1, "run this many seeds (-seed, -seed+1, …), each under a --- seed S --- line")
		workers   = fs.Int("parallel", 1, "worker bound for the seed runs (0 = one per CPU)")
		events    = fs.Bool("events", false, "attach the event log to the run and dump it (every probe, lifecycle and fault event)")
		series    = fs.Bool("series", false, "also print per-epoch telemetry")
		asJSON    = fs.Bool("json", false, "emit the full report as JSON instead of text (one value per seed)")
		faults    = fs.String("faults", "", "fault plan file, or a fault rate (events per gigacycle) to generate one; merged with a job file's fault directives")
		faultSeed = fs.Int64("fault-seed", 1, "seed for a generated -faults rate plan")
		sched     = fs.String("sched", "", "core scheduler policy: "+cli.PolicyList(sim.SchedulerNames())+" (empty = policy default)")
		alloc     = fs.String("alloc", "", "L2 way allocator policy: "+cli.PolicyList(sim.AllocatorNames())+" (empty = policy default)")
		ctrl      = fs.String("ctrl", "", "feedback controller: "+cli.PolicyList(sim.ControllerNames())+" (empty = static)")
		timeout   = fs.Duration("timeout", 0, "abort the run after this long (e.g. 30s; 0 = no limit)")
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
	if fs.NArg() > 0 {
		return fail(cli.ExitUsage, fmt.Errorf("unexpected argument %q (a job file is -workload FILE)", fs.Arg(0)))
	}
	if err := sim.ValidateNames(*sched, *alloc, *ctrl, ""); err != nil {
		return fail(cli.ExitUsage, err)
	}

	pol, ok := parsePolicy(*policy)
	if !ok {
		return fail(cli.ExitUsage, fmt.Errorf("unknown policy %q", *policy))
	}
	comp, ok := parseWorkload(*wl)
	var spec *jobfile.Spec
	if !ok {
		var err error
		if spec, err = cli.ReadJobFile(*wl); errors.Is(err, os.ErrNotExist) {
			return fail(cli.ExitUsage, fmt.Errorf("unknown workload %q (not a benchmark, mix1, mix2 or a job file)", *wl))
		} else if err != nil {
			return fail(cli.ExitFailure, err)
		}
		comp = workload.Composition{Name: "jobfile"}
	}
	cfg := sim.DefaultConfig(pol, comp)
	cfg.ScaleJobs(*instr)
	cfg.Seed = *seed
	cfg.RecordSeries = *series
	cfg.Scheduler = *sched
	cfg.Allocator = *alloc
	cfg.Controller = *ctrl
	if spec != nil {
		cfg.Script = spec.Script()
		cfg.Faults = spec.FaultPlan()
		if c := spec.NodeCapacity.Cores; c > 0 && c <= cfg.L2.Owners {
			cfg.Cores = c
		}
	}
	plan, err := cli.ParseFaultPlan(*faults, *faultSeed, cfg.Cores, cfg.L2.Ways)
	if err != nil {
		return fail(cli.ExitFailure, err)
	}
	cfg.Faults = plan.Merge(cfg.Faults)

	// The seeds are independent runs, fanned across the worker bound and
	// rendered in seed order.
	n := max(1, *seeds)
	logs := make([]sim.EventLog, n)
	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	reps, err := parallel.Map(ctx, parallel.New(cmp.Or(*workers, -1)), n, func(i int) (*sim.Report, error) {
		c := cfg
		c.Seed += int64(i)
		r, err := sim.New(c)
		if err != nil {
			return nil, err
		}
		if *events {
			r.AddSink(&logs[i])
		}
		return r.RunContext(ctx)
	})
	if err != nil {
		return fail(cli.ExitFailure, err)
	}
	for i, rep := range reps {
		if *asJSON {
			if err := rep.WriteJSON(stdout); err != nil {
				return fail(cli.ExitFailure, err)
			}
			continue
		}
		if n > 1 {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			fmt.Fprintf(stdout, "--- seed %d ---\n", cfg.Seed+int64(i))
		}
		fmt.Fprint(stdout, rep.Summary())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, rep.Gantt(*width))
		if *events {
			fmt.Fprintln(stdout, "\nevent log:")
			for _, e := range logs[i].Events() {
				fmt.Fprintf(stdout, "%14d  job %-5d %s\n", e.Cycle, e.JobID, e.Kind)
			}
		}
		if *series {
			fmt.Fprintln(stdout, "\ntelemetry (cycle, running, waiting, reserved-ways, opp-jobs, bus-util):")
			for _, p := range rep.Series {
				fmt.Fprintf(stdout, "%14d  %3d %3d %3d %3d  %.3f\n",
					p.Cycle, p.Running, p.Waiting, p.ReservedWays, p.OppJobs, p.BusUtil)
			}
		}
	}
	return cli.ExitOK
}

func parsePolicy(s string) (sim.Policy, bool) {
	switch strings.ToLower(s) {
	case "allstrict", "all-strict":
		return sim.AllStrict, true
	case "hybrid1", "hybrid-1":
		return sim.Hybrid1, true
	case "hybrid2", "hybrid-2":
		return sim.Hybrid2, true
	case "autodown", "all-strict+autodown":
		return sim.AllStrictAutoDown, true
	case "equalpart":
		return sim.EqualPart, true
	}
	return 0, false
}

// parseWorkload resolves a benchmark or mix name; any other -workload
// value is the path of a job file.
func parseWorkload(s string) (workload.Composition, bool) {
	switch strings.ToLower(s) {
	case "mix1", "mix-1":
		return workload.Mix1(), true
	case "mix2", "mix-2":
		return workload.Mix2(), true
	}
	if _, ok := workload.ByName(s); !ok {
		return workload.Composition{}, false
	}
	return workload.Single(s), true
}

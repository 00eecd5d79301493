// Command qostrace renders Figure-7-style execution traces for any
// workload and configuration.
//
// Usage:
//
//	qostrace -policy autodown -workload bzip2
//	qostrace -policy hybrid2 -workload mix1 -width 100 -events
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cmpqos/internal/cli"
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
		wl        = fs.String("workload", "bzip2", "benchmark name, mix1, or mix2")
		width     = fs.Int("width", 80, "gantt width in columns")
		instr     = fs.Int64("instr", 20_000_000, "instructions per job")
		seed      = fs.Int64("seed", 1, "random seed")
		events    = fs.Bool("events", false, "attach the event log to the run and dump it (every probe, lifecycle and fault event)")
		series    = fs.Bool("series", false, "also print per-epoch telemetry")
		asJSON    = fs.Bool("json", false, "emit the full report as JSON instead of text")
		faults    = fs.String("faults", "", "fault plan file, or a fault rate (events per gigacycle) to generate one")
		faultSeed = fs.Int64("fault-seed", 1, "seed for a generated -faults rate plan")
		sched     = fs.String("sched", "", "core scheduler policy: "+cli.PolicyList(sim.SchedulerNames())+" (empty = policy default)")
		alloc     = fs.String("alloc", "", "L2 way allocator policy: "+cli.PolicyList(sim.AllocatorNames())+" (empty = policy default)")
		admit     = fs.String("admit", "", "admission placement policy: "+cli.PolicyList(sim.AdmissionNames())+" (empty = fcfs)")
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
	if err := sim.ValidateNames(*sched, *alloc, *admit, "", ""); err != nil {
		return fail(cli.ExitUsage, err)
	}

	pol, ok := parsePolicy(*policy)
	if !ok {
		return fail(cli.ExitUsage, fmt.Errorf("unknown policy %q", *policy))
	}
	comp, err := parseWorkload(*wl)
	if err != nil {
		return fail(cli.ExitUsage, err)
	}
	cfg := sim.DefaultConfig(pol, comp)
	cfg.ScaleJobs(*instr)
	cfg.Seed = *seed
	cfg.RecordSeries = *series
	cfg.Scheduler = *sched
	cfg.Allocator = *alloc
	cfg.Admission = *admit
	cfg.Faults, err = cli.ParseFaultPlan(*faults, *faultSeed, cfg.Cores, cfg.L2.Ways)
	if err != nil {
		return fail(cli.ExitFailure, err)
	}
	r, err := sim.New(cfg)
	if err != nil {
		return fail(cli.ExitFailure, err)
	}
	var log sim.EventLog
	if *events {
		r.AddSink(&log)
	}
	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	rep, err := r.RunContext(ctx)
	if err != nil {
		return fail(cli.ExitFailure, err)
	}
	if *asJSON {
		if err := rep.WriteJSON(stdout); err != nil {
			return fail(cli.ExitFailure, err)
		}
		return cli.ExitOK
	}
	fmt.Fprintf(stdout, "%s / %s — %d accepted jobs complete in %d cycles, hit rate %.0f%%\n\n",
		rep.Policy, rep.Workload, rep.AcceptedJobs, rep.TotalCycles, rep.DeadlineHitRate*100)
	fmt.Fprint(stdout, rep.Gantt(*width))
	if *events {
		fmt.Fprintln(stdout, "\nevent log:")
		for _, e := range log.Events() {
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

func parseWorkload(s string) (workload.Composition, error) {
	switch strings.ToLower(s) {
	case "mix1", "mix-1":
		return workload.Mix1(), nil
	case "mix2", "mix-2":
		return workload.Mix2(), nil
	}
	if _, ok := workload.ByName(s); !ok {
		return workload.Composition{}, fmt.Errorf("unknown workload %q", s)
	}
	return workload.Single(s), nil
}

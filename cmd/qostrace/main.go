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
	"os"
	"strings"

	"cmpqos/internal/cli"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

const prog = "qostrace"

func main() {
	var (
		policy    = flag.String("policy", "allstrict", "allstrict|hybrid1|hybrid2|autodown|equalpart")
		wl        = flag.String("workload", "bzip2", "benchmark name, mix1, or mix2")
		width     = flag.Int("width", 80, "gantt width in columns")
		instr     = flag.Int64("instr", 20_000_000, "instructions per job")
		seed      = flag.Int64("seed", 1, "random seed")
		events    = flag.Bool("events", false, "attach the event log to the run and dump it (every probe, lifecycle and fault event)")
		series    = flag.Bool("series", false, "also print per-epoch telemetry")
		asJSON    = flag.Bool("json", false, "emit the full report as JSON instead of text")
		faults    = flag.String("faults", "", "fault plan file, or a fault rate (events per gigacycle) to generate one")
		faultSeed = flag.Int64("fault-seed", 1, "seed for a generated -faults rate plan")
		sched     = flag.String("sched", "", "core scheduler policy: "+cli.PolicyList(sim.SchedulerNames())+" (empty = policy default)")
		alloc     = flag.String("alloc", "", "L2 way allocator policy: "+cli.PolicyList(sim.AllocatorNames())+" (empty = policy default)")
		admit     = flag.String("admit", "", "admission placement policy: "+cli.PolicyList(sim.AdmissionNames())+" (empty = fcfs)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (e.g. 30s; 0 = no limit)")
	)
	flag.Parse()
	if err := sim.ValidateNames(*sched, *alloc, *admit, "", ""); err != nil {
		cli.Usage(prog, "%v", err)
	}

	pol, ok := parsePolicy(*policy)
	if !ok {
		cli.Usage(prog, "unknown policy %q", *policy)
	}
	comp, err := parseWorkload(*wl)
	if err != nil {
		cli.Usage(prog, "%v", err)
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
		cli.Fail(prog, err)
	}
	r, err := sim.New(cfg)
	if err != nil {
		cli.Fail(prog, err)
	}
	var log sim.EventLog
	if *events {
		r.AddSink(&log)
	}
	ctx, cancel := cli.Context(*timeout)
	defer cancel()
	rep, err := r.RunContext(ctx)
	if err != nil {
		cli.Fail(prog, err)
	}
	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			cli.Fail(prog, err)
		}
		return
	}
	fmt.Printf("%s / %s — %d accepted jobs complete in %d cycles, hit rate %.0f%%\n\n",
		rep.Policy, rep.Workload, rep.AcceptedJobs, rep.TotalCycles, rep.DeadlineHitRate*100)
	fmt.Print(rep.Gantt(*width))
	if *events {
		fmt.Println("\nevent log:")
		for _, e := range log.Events() {
			fmt.Printf("%14d  job %-5d %s\n", e.Cycle, e.JobID, e.Kind)
		}
	}
	if *series {
		fmt.Println("\ntelemetry (cycle, running, waiting, reserved-ways, opp-jobs, bus-util):")
		for _, p := range rep.Series {
			fmt.Printf("%14d  %3d %3d %3d %3d  %.3f\n",
				p.Cycle, p.Running, p.Waiting, p.ReservedWays, p.OppJobs, p.BusUtil)
		}
	}
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

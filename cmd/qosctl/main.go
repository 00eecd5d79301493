// Command qosctl schedules a batch-job file onto a cluster of simulated
// CMP nodes through the QoS framework's admission controllers, and
// prints the resulting schedule — the LSBatch-style front door the paper
// grounds its RUM targets in (§3.2).
//
// Usage:
//
//	qosctl jobs.qos
//	qosctl -negotiate -clock 2GHz jobs.qos
//
// A job file looks like:
//
//	node count=2 cores=4 ways=16
//	job name=db    bench=bzip2 mode=strict preset=medium tw=500ms deadline=2.0
//	job name=batch bench=gobmk mode=elastic slack=5% ways=7 tw=300ms deadline=3.0
//	job name=scav  bench=milc  mode=opportunistic ways=4 tw=200ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cmpqos/internal/cli"
	"cmpqos/internal/fault"
	"cmpqos/internal/jobfile"
	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

const prog = "qosctl"

func main() {
	var (
		negotiate = flag.Bool("negotiate", false, "retry rejected Strict jobs with weaker modes")
		clock     = flag.String("clock", "2GHz", "node clock frequency (e.g. 2GHz, 1.5GHz)")
		simulate  = flag.Bool("simulate", false, "run the jobs through the CMP simulator end to end (runs on one node)")
		instr     = flag.Int64("instr", 20_000_000, "instructions per job when simulating")
		seeds     = flag.Int("seeds", 1, "with -simulate: run this many seeds of the job file")
		parallel  = flag.Int("parallel", 1, "with -simulate: worker bound for the seed runs (0 = one per CPU)")
		faults    = flag.String("faults", "", "with -simulate: fault plan file, or a fault rate (events per gigacycle) to generate one; merged with the job file's fault directives")
		faultSeed = flag.Int64("fault-seed", 1, "seed for a generated -faults rate plan")
		sched     = flag.String("sched", "", "with -simulate: core scheduler policy: "+cli.PolicyList(sim.SchedulerNames())+" (empty = policy default)")
		alloc     = flag.String("alloc", "", "with -simulate: L2 way allocator policy: "+cli.PolicyList(sim.AllocatorNames())+" (empty = policy default)")
		admit     = flag.String("admit", "", "with -simulate: admission placement policy: "+cli.PolicyList(sim.AdmissionNames())+" (empty = fcfs)")
		ctrl      = flag.String("ctrl", "", "with -simulate: feedback controller: "+cli.PolicyList(sim.ControllerNames())+" (empty = static)")
		dispatch  = flag.String("dispatch", "", "GAC placement strategy: "+cli.PolicyList(qos.StrategyNames())+" (empty = bestfit; not with -simulate)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (e.g. 30s; 0 = no limit)")
	)
	flag.Parse()
	if err := sim.ValidateNames(*sched, *alloc, *admit, *ctrl, *dispatch); err != nil {
		cli.Usage(prog, "%v", err)
	}
	if *simulate && *dispatch != "" {
		cli.Usage(prog, "-dispatch places across nodes; -simulate runs on one node")
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qosctl [-negotiate] [-clock 2GHz] <jobfile>")
		os.Exit(cli.ExitUsage)
	}
	hz, err := cli.ParseClock(*clock)
	if err != nil {
		cli.Usage(prog, "%v", err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		cli.Fail(prog, err)
	}
	defer f.Close()
	spec, err := jobfile.Parse(f)
	if err != nil {
		cli.Fail(prog, err)
	}

	if *simulate {
		plan, err := cli.ParseFaultPlan(*faults, *faultSeed, spec.NodeCapacity.Cores, spec.NodeCapacity.CacheWays)
		if err != nil {
			cli.Fail(prog, err)
		}
		runSimulation(spec, *instr, *seeds, *parallel, plan, *timeout,
			pipelineNames{*sched, *alloc, *admit, *ctrl})
		return
	}

	nodes := make([]*qos.LAC, spec.NodeCount)
	for i := range nodes {
		nodes[i] = qos.NewLAC(spec.NodeCapacity)
	}
	gac := qos.NewGAC(nodes...)
	if err := gac.SetStrategy(*dispatch); err != nil {
		cli.Usage(prog, "%v", err)
	}

	fmt.Printf("cluster: %d node(s) of %v at %s\n\n", spec.NodeCount, spec.NodeCapacity, *clock)
	fmt.Println("job        mode            node   start(ms)  reserved(ms)      outcome")
	accepted, rejected := 0, 0
	for i, req := range spec.Requests(hz) {
		name := spec.Jobs[i].Name
		if name == "" {
			name = fmt.Sprintf("job-%d", req.JobID)
		}
		var p qos.Placement
		if *negotiate {
			p = gac.PlanOrNegotiate(req, 0.05)
		} else {
			p = gac.Plan(req)
		}
		// The admitted mode, which the oversub retry and the ladder may
		// have weakened.
		node, mode, dec := p.Node, p.Mode, gac.Commit(p)
		if !dec.Accepted {
			rejected++
			fmt.Printf("%-10s %-15s %4s  %9s  %12s      REJECTED: %s\n",
				name, req.Mode.String(), "-", "-", "-", dec.Reason)
			continue
		}
		accepted++
		rum := req.Target.(qos.RUM)
		resv := "-"
		if mode.Reserves() {
			resv = fmt.Sprintf("%.1f", float64(mode.ReservationLength(rum.MaxWallClock))/hz*1e3)
		}
		outcome := "accepted"
		if dec.AutoDowngraded {
			outcome = "accepted (auto-downgraded)"
		} else if mode != req.Mode && *negotiate {
			outcome = "accepted (negotiated)"
		} else if mode != req.Mode {
			outcome = "accepted (oversubscribed)"
		}
		fmt.Printf("%-10s %-15s %4d  %9.1f  %12s      %s\n",
			name, mode.String(), node, float64(dec.Start)/hz*1e3, resv, outcome)
	}
	fmt.Printf("\n%d accepted, %d rejected\n", accepted, rejected)
	for i, n := range nodes {
		fmt.Printf("node %d reservations:\n", i)
		tl := n.Timeline()
		for _, r := range tl.Reservations() {
			fmt.Printf("  job %-3d %v  [%8.1f ms .. %8.1f ms)\n",
				r.JobID, r.Vec, float64(r.Start)/hz*1e3, float64(r.End)/hz*1e3)
		}
		if h := tl.Horizon(0); h > 0 {
			fmt.Print(tl.Render(0, h, 64))
		}
	}
	if rejected > 0 {
		os.Exit(cli.ExitRejected)
	}
}

// runSimulation executes the job file's submissions through the CMP
// simulator (Hybrid-2 semantics: every mode in the file is honored) and
// prints the resulting report and execution trace. With seeds > 1 the
// same script runs once per seed — the runs are independent and fan out
// across the worker bound (0 = one per CPU), the qosctl face of the
// qossim -parallel flag.
// pipelineNames carries the -sched/-alloc/-admit/-ctrl selections into
// the simulated configurations.
type pipelineNames struct {
	scheduler, allocator, admission, controller string
}

func runSimulation(spec *jobfile.Spec, instr int64, seeds, workers int, plan fault.Plan, timeout time.Duration, pipe pipelineNames) {
	if seeds < 1 {
		seeds = 1
	}
	if workers == 0 {
		workers = -1 // flag value 0 means "all CPUs"
	}
	var cfgs []sim.Config
	for s := 0; s < seeds; s++ {
		cfg := sim.DefaultConfig(sim.Hybrid2, workload.Composition{Name: "jobfile"})
		cfg.JobInstr = instr
		cfg.StealIntervalInstr = instr / 100
		if cfg.StealIntervalInstr < 1 {
			cfg.StealIntervalInstr = 1
		}
		cfg.Script = spec.Script(cfg.CPU.ClockHz)
		cfg.Faults = plan.Merge(spec.FaultPlan(cfg.CPU.ClockHz))
		if spec.NodeCapacity.Cores > 0 && spec.NodeCapacity.Cores <= cfg.L2.Owners {
			cfg.Cores = spec.NodeCapacity.Cores
		}
		cfg.Scheduler = pipe.scheduler
		cfg.Allocator = pipe.allocator
		cfg.Admission = pipe.admission
		cfg.Controller = pipe.controller
		cfg.Seed += int64(s)
		cfgs = append(cfgs, cfg)
	}
	ctx, cancel := cli.Context(timeout)
	defer cancel()
	reps, err := sim.RunAll(ctx, workers, nil, cfgs)
	if err != nil {
		cli.Fail(prog, err)
	}
	for i, rep := range reps {
		if seeds > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("--- seed %d ---\n", cfgs[i].Seed)
		}
		fmt.Print(rep.Summary())
		fmt.Println()
		fmt.Print(rep.Gantt(72))
	}
}

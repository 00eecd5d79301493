// Command qosctl schedules a batch-job file onto a cluster of simulated
// CMP nodes through the QoS framework's admission controllers, and
// prints the resulting schedule — the LSBatch-style front door the paper
// grounds its RUM targets in (§3.2).
//
// Usage:
//
//	qosctl jobs.qos
//	qosctl -negotiate -clock 2GHz jobs.qos
//	qosctl -dispatch worstfit examples/jobs.qos
//
// qostrace -workload jobs.qos runs the same file through the CMP
// simulator on one node.
//
// A job file looks like (examples/jobs.qos):
//
//	node count=2 cores=4 ways=16
//	job name=db    bench=bzip2 mode=strict preset=medium tw=500ms deadline=2.0
//	job name=batch bench=gobmk mode=elastic slack=5% ways=7 tw=300ms deadline=3.0
//	job name=scav  bench=milc  mode=opportunistic ways=4 tw=200ms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cmpqos/internal/cli"
	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
)

const prog = "qosctl"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on explicit arguments and streams: it returns the exit
// code instead of exiting, so a test can drive every flag in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		negotiate = fs.Bool("negotiate", false, "retry rejected Strict jobs with weaker modes")
		clock     = fs.String("clock", "2GHz", "node clock frequency (e.g. 2GHz, 1.5GHz)")
		dispatch  = fs.String("dispatch", "", "GAC placement strategy: "+cli.PolicyList(qos.StrategyNames())+" (empty = bestfit)")
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
	if err := sim.ValidateNames("", "", "", *dispatch); err != nil {
		return fail(cli.ExitUsage, err)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: qosctl [-negotiate] [-clock 2GHz] [-dispatch strategy] <jobfile>")
		return cli.ExitUsage
	}
	hz, err := cli.ParseClock(*clock)
	if err != nil {
		return fail(cli.ExitUsage, err)
	}
	spec, err := cli.ReadJobFile(fs.Arg(0))
	if err != nil {
		return fail(cli.ExitFailure, err)
	}

	nodes := make([]*qos.LAC, spec.NodeCount)
	for i := range nodes {
		nodes[i] = qos.NewLAC(spec.NodeCapacity)
	}
	gac := qos.NewGAC(nodes...)
	if err := gac.SetStrategy(*dispatch); err != nil {
		panic(err) // ValidateNames accepted the name above
	}

	fmt.Fprintf(stdout, "cluster: %d node(s) of %v at %s\n\n", spec.NodeCount, spec.NodeCapacity, *clock)
	fmt.Fprintln(stdout, "job        mode            node   start(ms)  reserved(ms)      outcome")
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
			fmt.Fprintf(stdout, "%-10s %-15s %4s  %9s  %12s      REJECTED: %s\n",
				name, req.Mode.String(), "-", "-", "-", dec.Reason)
			continue
		}
		accepted++
		rum := req.Target.(qos.RUM)
		resv := "-"
		if mode.Reserves() {
			resv = fmt.Sprintf("%.1f", float64(mode.ReservationLength(rum.MaxWallClock))/hz*1e3)
		}
		// The nodes are built without qos.WithAutoDowngrade, so no
		// decision is auto-downgraded: a weaker mode is the ladder's or
		// oversub's.
		outcome := "accepted"
		if mode != req.Mode && *negotiate {
			outcome = "accepted (negotiated)"
		} else if mode != req.Mode {
			outcome = "accepted (oversubscribed)"
		}
		fmt.Fprintf(stdout, "%-10s %-15s %4d  %9.1f  %12s      %s\n",
			name, mode.String(), node, float64(dec.Start)/hz*1e3, resv, outcome)
	}
	fmt.Fprintf(stdout, "\n%d accepted, %d rejected\n", accepted, rejected)
	for i, n := range nodes {
		fmt.Fprintf(stdout, "node %d reservations:\n", i)
		tl := n.Timeline()
		for _, r := range tl.Reservations() {
			fmt.Fprintf(stdout, "  job %-3d %v  [%8.1f ms .. %8.1f ms)\n",
				r.JobID, r.Vec, float64(r.Start)/hz*1e3, float64(r.End)/hz*1e3)
		}
		if h := tl.Horizon(0); h > 0 {
			fmt.Fprint(stdout, tl.Render(0, h, 64))
		}
	}
	if rejected > 0 {
		return cli.ExitRejected
	}
	return cli.ExitOK
}

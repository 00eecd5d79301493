// Command misscurve probes miss-ratio-vs-ways curves for the benchmark
// profiles, through the real partitioned cache model (synthetic trace)
// and/or from the calibrated tables, and prints them side by side.
//
// The measured curves come from the one-pass Mattson stack-distance
// profiler: a single stream traversal yields the exact curve at every
// way allocation (internal/cache's tests hold it bit-exact against one
// stream replay per allocation). -sample-every=N profiles every Nth set
// only (the paper's §4.3 sampling; N a power of two), dividing the work
// again.
//
// Usage:
//
//	misscurve                 # all fifteen benchmarks, calibrated curves
//	misscurve -bench bzip2 -trace
//	misscurve -bench bzip2 -trace -sample-every 8       # sampled
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cmpqos/internal/cache"
	"cmpqos/internal/cli"
	"cmpqos/internal/workload"
)

const prog = "misscurve"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main on explicit arguments and streams: it returns the exit
// code instead of exiting, so a test can drive every flag in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "", "benchmark to probe (default: all)")
		doTrace = fs.Bool("trace", false, "also measure through the real cache model")
		warmup  = fs.Int("warmup", 250_000, "trace warmup accesses")
		measure = fs.Int("measure", 250_000, "trace measured accesses")
		every   = fs.Int("sample-every", 1, "profile every Nth cache set (power of two dividing the set count; 1 = all sets)")
		dump    = fs.String("dump", "", "record the benchmark's synthetic trace to this file and exit")
		dumpN   = fs.Int("dump-n", 1_000_000, "accesses to record with -dump")
		replay  = fs.String("replay", "", "probe a recorded trace file instead of a benchmark")
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

	// The paper's L2 with one owner: a benchmark probed alone.
	cfg := cache.PaperL2()
	cfg.Owners = 1
	probe := func(st cache.AddrStream) cache.MissCurve {
		return cache.SinglePassMissCurveSampled(cfg, st, *warmup, *measure, *every)
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		addrs, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		curve := probe(workload.NewReplay(addrs))
		fmt.Fprintf(stdout, "replayed %s (%d accesses, single-pass profiler)\n  ways:  ", *replay, len(addrs))
		for w := 1; w <= 16; w++ {
			fmt.Fprintf(stdout, "%6d", w)
		}
		fmt.Fprintf(stdout, "\n  trace: ")
		for w := 1; w <= 16; w++ {
			fmt.Fprintf(stdout, "%6.3f", curve.At(w))
		}
		fmt.Fprintln(stdout)
		return cli.ExitOK
	}
	if *dump != "" {
		if *bench == "" {
			return fail(cli.ExitUsage, fmt.Errorf("-dump needs -bench"))
		}
		p, ok := workload.ByName(*bench)
		if !ok {
			return fail(cli.ExitUsage, fmt.Errorf("unknown benchmark %q", *bench))
		}
		f, err := os.Create(*dump)
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		err = workload.WriteTrace(f, p.NewStream(42, 0), *dumpN)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail(cli.ExitFailure, err)
		}
		fmt.Fprintf(stdout, "recorded %d accesses of %s to %s\n", *dumpN, *bench, *dump)
		return cli.ExitOK
	}

	var profiles []workload.Profile
	if *bench == "" {
		profiles = workload.Profiles()
	} else {
		p, ok := workload.ByName(*bench)
		if !ok {
			return fail(cli.ExitUsage, fmt.Errorf("unknown benchmark %q", *bench))
		}
		profiles = []workload.Profile{p}
	}

	for _, p := range profiles {
		fmt.Fprintf(stdout, "%s (%s, group %d: %s)\n", p.Name, p.InputSet, int(p.Group), p.Group)
		fmt.Fprintf(stdout, "  ways:       ")
		for w := 1; w <= 16; w++ {
			fmt.Fprintf(stdout, "%6d", w)
		}
		fmt.Fprintf(stdout, "\n  calibrated: ")
		for w := 1; w <= 16; w++ {
			fmt.Fprintf(stdout, "%6.3f", p.MissRatio(w))
		}
		fmt.Fprintln(stdout)
		if *doTrace {
			curve := probe(p.NewStream(42, 0))
			label := "trace:     "
			if *every > 1 {
				label = fmt.Sprintf("trace/%-4d", *every)
			}
			fmt.Fprintf(stdout, "  %s ", label)
			for w := 1; w <= 16; w++ {
				fmt.Fprintf(stdout, "%6.3f", curve.At(w))
			}
			fmt.Fprintln(stdout)
		}
	}
	return cli.ExitOK
}

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
	"os"

	"cmpqos/internal/cache"
	"cmpqos/internal/cli"
	"cmpqos/internal/workload"
)

const prog = "misscurve"

func main() {
	var (
		bench   = flag.String("bench", "", "benchmark to probe (default: all)")
		doTrace = flag.Bool("trace", false, "also measure through the real cache model")
		warmup  = flag.Int("warmup", 250_000, "trace warmup accesses")
		measure = flag.Int("measure", 250_000, "trace measured accesses")
		every   = flag.Int("sample-every", 1, "profile every Nth cache set (power of two dividing the set count; 1 = all sets)")
		dump    = flag.String("dump", "", "record the benchmark's synthetic trace to this file and exit")
		dumpN   = flag.Int("dump-n", 1_000_000, "accesses to record with -dump")
		replay  = flag.String("replay", "", "probe a recorded trace file instead of a benchmark")
	)
	flag.Parse()

	cfg := cache.Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10}
	probe := func(st cache.AddrStream) cache.MissCurve {
		return cache.SinglePassMissCurveSampled(cfg, st, *warmup, *measure, *every)
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			cli.Fail(prog, err)
		}
		addrs, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			cli.Fail(prog, err)
		}
		curve := probe(workload.NewReplay(addrs))
		fmt.Printf("replayed %s (%d accesses, single-pass profiler)\n  ways:  ", *replay, len(addrs))
		for w := 1; w <= 16; w++ {
			fmt.Printf("%6d", w)
		}
		fmt.Printf("\n  trace: ")
		for w := 1; w <= 16; w++ {
			fmt.Printf("%6.3f", curve.At(w))
		}
		fmt.Println()
		return
	}
	if *dump != "" {
		if *bench == "" {
			cli.Usage(prog, "-dump needs -bench")
		}
		p, ok := workload.ByName(*bench)
		if !ok {
			cli.Usage(prog, "unknown benchmark %q", *bench)
		}
		f, err := os.Create(*dump)
		if err != nil {
			cli.Fail(prog, err)
		}
		defer f.Close()
		if err := workload.WriteTrace(f, p.NewStream(42, 0), *dumpN); err != nil {
			cli.Fail(prog, err)
		}
		fmt.Printf("recorded %d accesses of %s to %s\n", *dumpN, *bench, *dump)
		return
	}

	var profiles []workload.Profile
	if *bench == "" {
		profiles = workload.Profiles()
	} else {
		p, ok := workload.ByName(*bench)
		if !ok {
			cli.Usage(prog, "unknown benchmark %q", *bench)
		}
		profiles = []workload.Profile{p}
	}

	for _, p := range profiles {
		fmt.Printf("%s (%s, group %d: %s)\n", p.Name, p.InputSet, int(p.Group), p.Group)
		fmt.Printf("  ways:       ")
		for w := 1; w <= 16; w++ {
			fmt.Printf("%6d", w)
		}
		fmt.Printf("\n  calibrated: ")
		for w := 1; w <= 16; w++ {
			fmt.Printf("%6.3f", p.MissRatio(w))
		}
		fmt.Println()
		if *doTrace {
			curve := probe(p.NewStream(42, 0))
			label := "trace:     "
			if *every > 1 {
				label = fmt.Sprintf("trace/%-4d", *every)
			}
			fmt.Printf("  %s ", label)
			for w := 1; w <= 16; w++ {
				fmt.Printf("%6.3f", curve.At(w))
			}
			fmt.Println()
		}
	}
}

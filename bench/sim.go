package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"cmpqos/internal/fault"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// simRun is one entry of the sim-node tape: a configuration and the
// ledger class its spans are filed under.
type simRun struct {
	class string // paper | dense | pid | faults
	cfg   sim.Config
}

// dense rescales a paper-scale configuration to the event-dense regime:
// short jobs and a tight stealing interval, where almost every epoch is
// stepped instead of fast-forwarded.
func dense(cfg sim.Config) sim.Config {
	cfg.JobInstr = 10_000_000
	cfg.StealIntervalInstr = 100_000
	return cfg
}

// tapeVariants is how many seedings of the sim-node tape the ops cycle
// through. A simulation's cost follows its seed's event stream (±5%
// between seeds for a whole pass); cycling sixteen seedings makes a run's
// totals an average over 384 streams, so they barely move with --seed.
const tapeVariants = 16

// nodeTape is the fixed 24-run tape one sim-node op passes over, in its
// variant'th seeding: every run draws its own seed from the harness seed.
func nodeTape(seed int64, variant int) []simRun {
	bzip2 := workload.Single("bzip2")
	var tape []simRun
	add := func(class string, cfg sim.Config) {
		cfg.Seed = seed*1000 + int64(variant)*100 + int64(len(tape)) + 1
		tape = append(tape, simRun{class, cfg})
	}
	for _, w := range []workload.Composition{bzip2, workload.Mix1(), workload.Mix2()} {
		for _, p := range sim.Policies() {
			add("paper", sim.DefaultConfig(p, w))
		}
	}
	for _, p := range sim.Policies() {
		add("dense", dense(sim.DefaultConfig(p, bzip2)))
	}
	for _, ctrl := range []string{"pid", "aimd"} {
		cfg := dense(sim.DefaultConfig(sim.AllStrict, bzip2))
		cfg.EnforceWallClock = true
		cfg.RequestWays = 6
		cfg.Controller = ctrl
		cfg.CtrlIntervalCycles = 8 * cfg.EpochCycles
		add("pid", cfg)
	}
	storm := sim.DefaultConfig(sim.Hybrid2, bzip2)
	storm.Faults = fault.Generate(seed*1000+int64(variant), 4, fault.DefaultHorizon, storm.Cores, storm.L2.Ways)
	add("faults", storm)
	elastic := workload.Composition{Name: "elastic-heavy"}
	for i := 0; i < 10; i++ {
		hint := workload.HintElastic
		if i%5 == 4 {
			hint = workload.HintStrict
		}
		elastic.Jobs = append(elastic.Jobs, workload.JobTemplate{Benchmark: "bzip2", Hint: hint})
	}
	add("dense", dense(sim.DefaultConfig(sim.Hybrid2, elastic)))
	return tape
}

// fleetConfig is the one cluster run a sim-fleet op executes.
func fleetConfig(seed int64, nodes int) sim.ClusterConfig {
	node := sim.DefaultConfig(sim.Hybrid2, workload.Single("bzip2"))
	node.Seed = seed
	return sim.ClusterConfig{Nodes: nodes, Node: node, AcceptTarget: 4 * nodes}
}

func hashInts(vs ...int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// reportDigest folds a node report's exact counts and every job's
// schedule into one number.
func reportDigest(rep *sim.Report) uint64 {
	vs := []int64{rep.TotalCycles, int64(rep.AcceptedJobs), int64(rep.Rejected), int64(rep.Terminated),
		int64(rep.DeadlineHits), int64(rep.DeadlineJobs), rep.CPUCycles, rep.LACProbes,
		rep.EpochsStepped, rep.EpochsSkipped, rep.CtrlRetunes}
	for _, j := range rep.Jobs {
		vs = append(vs, int64(j.ID), j.Started, j.Completed, j.WallClock)
	}
	return hashInts(vs...)
}

func clusterDigest(rep *sim.ClusterReport) uint64 {
	return hashInts(int64(rep.Accepted), int64(rep.RejectedProbes), int64(rep.Terminated), rep.TotalCycles,
		int64(rep.Violations), int64(rep.GuaranteedJobs), rep.CPUCycles, rep.LACProbes,
		rep.EpochsStepped, rep.EpochsSkipped)
}

// simCounts are the exact counts a sim op produces; they repeat run to
// run and move only when the simulated behaviour does.
type simCounts struct {
	accepted, rejected int64
	digest             uint64
}

func (c *simCounts) add(accepted, rejected int, digest uint64) {
	c.accepted += int64(accepted)
	c.rejected += int64(rejected)
	c.digest = hashInts(int64(c.digest), int64(digest))
}

// simOp is one op of a sim workload: it runs, checks itself against the
// first run of the same configuration, and returns its counts.
type simOp func() (simCounts, error)

// nodePass builds the sim-node op: call k passes over seeding k mod
// tapeVariants of the tape. first holds the digest of each run's first
// execution; every later execution must reproduce it.
func nodePass(seed int64) simOp {
	var tapes [tapeVariants][]simRun
	for v := range tapes {
		tapes[v] = nodeTape(seed, v)
	}
	var first [tapeVariants][]uint64
	for v := range first {
		first[v] = make([]uint64, len(tapes[v]))
	}
	calls := 0
	return func() (simCounts, error) {
		var c simCounts
		variant := calls % tapeVariants
		calls++
		first := first[variant]
		for i, run := range tapes[variant] {
			r, err := sim.New(run.cfg)
			if err != nil {
				return c, err
			}
			rep, err := r.Run()
			if err != nil {
				return c, err
			}
			d := reportDigest(rep)
			if first[i] == 0 {
				first[i] = d
			} else if first[i] != d {
				return c, fmt.Errorf("run %d (%s %s): report digest %x differs from the first run's %x",
					i, run.cfg.Policy, run.cfg.Workload.Name, d, first[i])
			}
			c.add(rep.AcceptedJobs, rep.Rejected, d)
		}
		return c, nil
	}
}

// fleetRun builds the sim-fleet op.
func fleetRun(cfg sim.ClusterConfig) simOp {
	var first uint64
	return func() (simCounts, error) {
		var c simCounts
		cr, err := sim.NewCluster(cfg)
		if err != nil {
			return c, err
		}
		rep, err := cr.Run()
		if err != nil {
			return c, err
		}
		d := clusterDigest(rep)
		if first == 0 {
			first = d
		} else if first != d {
			return c, fmt.Errorf("cluster report digest %x differs from the first run's %x", d, first)
		}
		c.add(rep.Accepted, rep.RejectedProbes, d)
		return c, nil
	}
}

// runSim is the untraced sim workload: build the op and warm it up with
// a tenth of the measured ops (that is one set-up), measure, count
// failures.
func runSim(build func() simOp, ops int) outcome {
	var out outcome
	var counts simCounts
	do := func(op simOp) time.Duration {
		t0 := time.Now()
		c, err := op()
		lat := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			if len(out.notes) < 10 {
				out.notes = append(out.notes, err.Error())
			}
		}
		counts = c
		return lat
	}
	var op simOp
	var setups []time.Duration
	for rep := 0; rep < setupRepeats; rep++ {
		t0 := time.Now()
		op = build()
		for i := 0; i < max(1, ops/10); i++ {
			do(op)
		}
		setups = append(setups, time.Since(t0))
	}
	out.phase = measure(ops, func(int) time.Duration { return do(op) })
	out.e2e, out.tail = out.phase.endToEnd(setups, liveHeapMB())
	out.tail["accept_frac"] = float64(counts.accepted) / float64(counts.accepted+counts.rejected)
	out.tail["decision_digest"] = float64(counts.digest >> 16)
	return out
}

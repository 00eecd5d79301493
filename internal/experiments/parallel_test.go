package experiments

import (
	"bytes"
	"context"
	"testing"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// TestCurveStoreSingleflightAcrossWorkers pins the memoized curve
// store's contract under the parallel pool: eight concurrent trace-
// engine runs that all need the same bzip2 tw-probe curve add exactly
// one entry to the process-wide store, and the reports are identical to
// a serial sweep's, which reads that entry — the curve a worker reads
// from the store is bit-exact with the one it would have probed itself,
// at any -parallel value. The job length is one no other test in the
// package runs the trace engine at, so the probe window is a fresh key.
func TestCurveStoreSingleflightAcrossWorkers(t *testing.T) {
	mkCfgs := func() []sim.Config {
		cfgs := make([]sim.Config, 8)
		for i := range cfgs {
			cfg := sim.TraceConfig(sim.Hybrid2, workload.Single("bzip2"))
			cfg.ScaleJobs(1_500_000)
			cfgs[i] = cfg
		}
		return cfgs
	}
	before := workload.DefaultCurveStore.Len()
	par, err := sim.RunAll(context.Background(), 8, nil, mkCfgs())
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.DefaultCurveStore.Len() - before; got != 1 {
		t.Errorf("8 concurrent identical runs added %d curves to the store, want 1", got)
	}
	serial, err := sim.RunAll(context.Background(), 1, nil, mkCfgs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if par[i].TotalCycles != serial[i].TotalCycles ||
			par[i].DeadlineHitRate != serial[i].DeadlineHitRate ||
			len(par[i].Jobs) != len(serial[i].Jobs) {
			t.Errorf("run %d: parallel report (%d cyc, hit %v, %d jobs) != serial (%d cyc, hit %v, %d jobs)",
				i, par[i].TotalCycles, par[i].DeadlineHitRate, len(par[i].Jobs),
				serial[i].TotalCycles, serial[i].DeadlineHitRate, len(serial[i].Jobs))
		}
	}
}

// TestTraceTablesByteIdenticalAcrossWorkers extends the -parallel
// byte-identity contract to the trace engine, whose per-run tw probes
// flow through the process-wide curve store: the engines comparison
// (five table + five trace runs through runAll) must render the same
// bytes at Workers 8 and 1. Both renders simulate every run. The curve
// store has no reset, so the workers-8 render goes first and must be
// the one that probes: its five trace runs race for one bzip2 curve,
// which the serial render reads back. Engines runs its trace side at
// sim.TraceConfig's own job length at any options, so the seed is what
// makes the probe key fresh: no other test in the package runs the
// trace engine at seed 41.
func TestTraceTablesByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-engine sweep is slow")
	}
	render := func(workers int) string {
		t.Helper()
		r, err := Engines(Options{Seed: 41, Workers: workers})
		if err != nil {
			t.Fatalf("engines (workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}
	before := workload.DefaultCurveStore.Len()
	b := render(8)
	if got := workload.DefaultCurveStore.Len() - before; got != 1 {
		t.Errorf("the workers-8 render added %d curves to the store, want 1", got)
	}
	if a := render(1); a != b {
		t.Errorf("engines table differs between 1 and 8 workers\n--- serial ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
	if len(b) == 0 {
		t.Error("engines produced no output")
	}
}

// TestWorkersZeroMeansSerial pins the backward-compatible default: a
// zero-valued Options (every pre-existing caller) must still run and
// match an explicit Workers: 1. Neither side has a run cache, so both
// simulate every run.
func TestWorkersZeroMeansSerial(t *testing.T) {
	run := func(o Options) string {
		t.Helper()
		r, err := Fig6(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}
	zero := run(Options{})
	one := run(Options{Workers: 1})
	if zero != one {
		t.Error("Workers: 0 output differs from Workers: 1")
	}
}

package experiments

import (
	"bytes"
	"context"
	"testing"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// TestParallelTablesByteIdentical pins the -parallel contract: the
// rendered table of a multi-run experiment is byte-for-byte the same at
// Workers: 8 as in the historical serial path. Configs are built in the
// original loop order and reports are consumed in that order, so even
// floating-point accumulation is unchanged.
func TestParallelTablesByteIdentical(t *testing.T) {
	render := func(name string, o Options) string {
		t.Helper()
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		var buf bytes.Buffer
		if err := r.Run(o, &buf); err != nil {
			t.Fatalf("%s (workers=%d): %v", name, o.Workers, err)
		}
		return buf.String()
	}
	names := []string{"fig5", "fig9"}
	if !testing.Short() {
		names = append(names, "seeds") // runs the fig5 grid five times
	}
	for _, name := range names {
		// Neither pass has a run cache, so both simulate every run
		// (warm-cache identity is pinned by TestGoldenTablesCacheOnVsOff).
		serial := Options{JobInstr: 5_000_000, Workers: 1}
		par := Options{JobInstr: 5_000_000, Workers: 8}
		a, b := render(name, serial), render(name, par)
		if a != b {
			t.Errorf("%s: rendered table differs between 1 and 8 workers\n--- serial ---\n%s\n--- workers=8 ---\n%s", name, a, b)
		}
		if len(a) == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

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
			cfg.JobInstr = 1_500_000
			cfg.StealIntervalInstr = cfg.JobInstr / 100
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
// store has no reset, so the workers-8 render, which goes first, probes
// the curves while its workers race for them, and the serial render
// reads them back.
func TestTraceTablesByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-engine sweep is slow")
	}
	render := func(workers int) string {
		t.Helper()
		r, err := Engines(Options{JobInstr: 5_000_000, Workers: workers})
		if err != nil {
			t.Fatalf("engines (workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}
	b, a := render(8), render(1)
	if a != b {
		t.Errorf("engines table differs between 1 and 8 workers\n--- serial ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
	if len(a) == 0 {
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
	zero := run(Options{JobInstr: 5_000_000})
	one := run(Options{JobInstr: 5_000_000, Workers: 1})
	if zero != one {
		t.Error("Workers: 0 output differs from Workers: 1")
	}
}

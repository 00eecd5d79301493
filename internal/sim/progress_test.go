package sim

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/stats"
	"cmpqos/internal/steal"
	"cmpqos/internal/workload"
)

// ctrlStormCfg mirrors the feedback experiment at test scale: an
// all-Strict pipeline with wall-clock enforcement, a way request that
// leaves the controller an idle pool to grant from, a tight controller
// cadence, and a deterministic fault storm.
func ctrlStormCfg(ctrl string) Config {
	cfg := planCacheCfg(AllStrict, "bzip2")
	cfg.EnforceWallClock = true
	cfg.RequestWays = 6
	cfg.Controller = ctrl
	cfg.CtrlIntervalCycles = 4 * cfg.EpochCycles
	horizon := int64(100_000_000)
	cfg.Faults = fault.Generate(7, 50/(float64(horizon)/1e9), horizon, cfg.Cores, cfg.L2.Ways)
	return cfg
}

// ctrlBurstCfg is the scripted bursty-arrival counterpart: waves of
// Strict jobs landing together so the controller sees contention ramp
// up and drain between waves.
func ctrlBurstCfg(ctrl string) Config {
	cfg := DefaultConfig(AllStrict, workload.Composition{Name: "ctrl-burst"})
	cfg.JobInstr = 10_000_000
	cfg.StealIntervalInstr = 100_000
	cfg.EnforceWallClock = true
	cfg.RequestWays = 6
	cfg.Controller = ctrl
	cfg.CtrlIntervalCycles = 4 * cfg.EpochCycles
	for wave := int64(0); wave < 3; wave++ {
		for j := int64(0); j < 4; j++ {
			cfg.Script = append(cfg.Script, ScriptedJob{
				Template:       workload.JobTemplate{Benchmark: "bzip2"},
				Arrival:        wave*2*cfg.JobInstr + j*cfg.EpochCycles,
				DeadlineFactor: 4,
			})
		}
	}
	return cfg
}

// TestControllerStaticIdentity pins the control plane's zero-cost
// default: Controller "static" (and its spelled-out alias) is the nil
// controller, so the run is byte-for-byte the open-loop pipeline —
// same report JSON, same event trace, zero retunes — with and without
// a fault plan in play.
func TestControllerStaticIdentity(t *testing.T) {
	base := planCacheCfg(Hybrid2, "bzip2")
	faulty := base
	faulty.Faults = fault.Generate(3, 40, 100_000_000, base.Cores, base.L2.Ways)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"clean", base},
		{"under-faults", faulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			implicit := tc.cfg
			implicit.Controller = ""
			explicit := tc.cfg
			explicit.Controller = "static"
			a, errA := runNode(implicit, false)
			b, errB := runNode(explicit, false)
			if err := errors.Join(errA, errB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.json, b.json) {
				t.Errorf("-ctrl static is not byte-identical to the default pipeline\ndefault: %s\nstatic:  %s",
					a.json, b.json)
			}
			if !reflect.DeepEqual(a.events, b.events) {
				t.Errorf("event traces differ: %d events default vs %d static",
					len(a.events), len(b.events))
			}
			if a.rep.CtrlRetunes != 0 || b.rep.CtrlRetunes != 0 {
				t.Errorf("static pipeline reports retunes: default %d, static %d",
					a.rep.CtrlRetunes, b.rep.CtrlRetunes)
			}
		})
	}
}

// TestControllerSkipByteIdentity extends the reference identity to
// closed-loop runs, the refCases fault storm and bursty arrivals under
// pid and aimd: controller ticks are QoS events, the fast-forward caps
// every steady window at the next tick, so the runs match the
// reference — and the identity is only meaningful if the controller
// actually retuned and the skip actually engaged.
func TestControllerSkipByteIdentity(t *testing.T) {
	matchCases(t, pickCases(t, "pid-fault-storm", "pid-bursty-arrivals", "aimd-fault-storm", "aimd-bursty-arrivals"))
}

// TestFoldViolationAccounting is the regression test for the fleet
// table bug: with FoldCompleted compaction, jobs terminated by a fault
// violation bypass the completion path, and before the fix they were
// never folded — so violation counts (and the guaranteed-job
// denominators) silently vanished from compacted windows. The fold-on
// run must agree with batch mode on every scalar aggregate.
func TestFoldViolationAccounting(t *testing.T) {
	cfg := planCacheCfg(AllStrict, "bzip2")
	cfg.RequestWays = 8
	// A deep dark-way window while two 8-way Strict jobs run: at most
	// one can refit, the other is violated.
	cfg.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.WayFault, At: 20 * cfg.EpochCycles, Ways: 12, Duration: 400 * cfg.EpochCycles},
	}}
	batch := mustRun(t, cfg)
	if batch.Faults.Violations == 0 {
		t.Fatal("fault plan produced no violations; the regression test needs at least one")
	}
	folded := cfg
	folded.FoldCompleted = true
	fr := mustRun(t, folded)
	type agg struct {
		accepted, terminated            int
		gHits, gJobs, dHits, dJobs      int
		violations                      int
		totalCycles, cpuCycles, retunes int64
	}
	get := func(r *Report) agg {
		return agg{
			accepted: r.AcceptedJobs, terminated: r.Terminated,
			gHits: r.GuaranteedHits, gJobs: r.GuaranteedJobs,
			dHits: r.DeadlineHits, dJobs: r.DeadlineJobs,
			violations:  r.Faults.Violations,
			totalCycles: r.TotalCycles, cpuCycles: r.CPUCycles,
			retunes: r.CtrlRetunes,
		}
	}
	if b, f := get(batch), get(fr); b != f {
		t.Errorf("FoldCompleted aggregates diverge from batch mode\nbatch: %+v\nfold:  %+v", b, f)
	}
}

// TestFoldCompaction runs one FoldCompleted node long enough that
// compaction (Runner.compact) fires several times, driving the loop Run
// drives so that it sees each compaction when the step that ran it
// returns. After each one the accepted slice must hold only live jobs:
// the job the overrun terminates is among the first finished, so a
// compaction that keeps a terminated (or done) job fails here. A
// compaction that drops a live job leaves that job unfolded, so the
// report's scalars must equal the batch run's, which keeps every job.
func TestFoldCompaction(t *testing.T) {
	cfg := wallClockCfg()
	cfg.JobInstr = 1_000_000
	cfg.AcceptTarget = 1_200
	batch := mustRun(t, cfg)
	if batch.Terminated == 0 {
		t.Fatal("the batch run terminated no job; the case needs one")
	}
	cfg.FoldCompleted = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compactions, most := 0, 0
	for !r.done() {
		if r.now > maxCycles {
			t.Fatal("the run never finished")
		}
		n := len(r.accepted)
		r.step()
		most = max(most, len(r.accepted))
		if len(r.accepted) < n {
			compactions++
			if r.doneN != 0 {
				t.Fatalf("cycle %d: compaction left doneN %d", r.now, r.doneN)
			}
			for _, j := range r.accepted {
				if j.State == StateDone || j.State == StateTerminated {
					t.Fatalf("cycle %d: compaction kept job %d, %v", r.now, j.ID, j.State)
				}
			}
		}
		for r.skipOK {
			k := r.steadyWindow(ffChunkEpochs)
			if k <= 0 {
				break
			}
			r.applySteady(k)
		}
	}
	if compactions < 2 || most >= cfg.AcceptTarget {
		t.Fatalf("%d compactions, at most %d jobs held of %d accepted; the case must compact more than once", compactions, most, cfg.AcceptTarget)
	}
	scalars := func(rep *Report) Report {
		cp := *rep
		cp.Jobs, cp.Lanes, cp.WallClockByMode, cp.OppWallClock = nil, nil, nil, stats.Summary{}
		cp.ElasticMissIncrease, cp.ElasticCPIIncrease = 0, 0
		return cp
	}
	if got, want := scalars(r.report()), scalars(batch); !reflect.DeepEqual(got, want) {
		t.Errorf("the compacted run's report differs from the batch run's\ngot:  %+v\nwant: %+v", got, want)
	}
	t.Logf("%d compactions, at most %d of %d jobs held", compactions, most, cfg.AcceptTarget)
}

// TestShadowSlowdownUnderDarkWays drives the runner epoch by epoch
// past a permanent dark-way fault and reads the progress-signal layer
// directly: every sample must be well-formed (positive measured ratio,
// finite non-negative slowdown), and with half the cache dark the
// shadow tags must actually measure excess misses on at least one
// sampled job — the signal the feedback controller steers on.
func TestShadowSlowdownUnderDarkWays(t *testing.T) {
	cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
	faultAt := 20 * cfg.EpochCycles
	cfg.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.WayFault, At: faultAt, Ways: cfg.L2.Ways / 2},
	}}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sampled int
	var maxSlow float64
	for i := 0; i < 2000 && !r.done(); i++ {
		r.step()
		if r.now <= faultAt {
			continue
		}
		for _, s := range r.appendProgressSamples(nil) {
			sampled++
			if s.Job == nil {
				t.Fatal("sample without a job")
			}
			if !s.Job.ReservedRunning(r.now) {
				t.Errorf("job %d sampled while not reserved-running", s.Job.ID)
			}
			if s.Ratio <= 0 || math.IsNaN(s.Ratio) || math.IsInf(s.Ratio, 0) {
				t.Errorf("job %d: malformed progress ratio %v", s.Job.ID, s.Ratio)
			}
			if s.Slowdown < 0 || math.IsNaN(s.Slowdown) || math.IsInf(s.Slowdown, 0) {
				t.Errorf("job %d: malformed shadow slowdown %v", s.Job.ID, s.Slowdown)
			}
			if s.Slowdown > maxSlow {
				maxSlow = s.Slowdown
			}
		}
	}
	if sampled == 0 {
		t.Fatal("no progress samples taken after the dark-way fault")
	}
	if maxSlow == 0 {
		t.Errorf("shadow tags measured zero slowdown across %d samples with %d of %d ways dark",
			sampled, cfg.L2.Ways/2, cfg.L2.Ways)
	}
}

// TestMeasuredSlowdownMonotoneInWays is the differential check behind
// the progress signal: for every calibrated workload, misses per
// instruction never drop when ways shrink, so the measured slowdown —
// main misses at the squeezed allocation against shadow misses at the
// reservation — is monotone non-decreasing as the allocation shrinks.
// A non-monotone curve would make the controller chase noise.
func TestMeasuredSlowdownMonotoneInWays(t *testing.T) {
	const instr = 100_000_000
	for _, p := range workload.Profiles() {
		wRes := 8
		shadow := int64(p.MPI(wRes) * instr)
		if shadow <= 0 {
			t.Fatalf("%s: no shadow misses at %d ways", p.Name, wRes)
		}
		prevMPI := math.Inf(1)
		prevSlow := math.Inf(1)
		for w := 1; w <= 16; w++ {
			if mpi := p.MPI(w); mpi > prevMPI {
				t.Errorf("%s: MPI rises from %g to %g as ways grow %d -> %d",
					p.Name, prevMPI, mpi, w-1, w)
			} else {
				prevMPI = mpi
			}
			if w > wRes {
				continue
			}
			slow := steal.ExcessMissRatio(int64(p.MPI(w)*instr), shadow)
			if slow > prevSlow {
				t.Errorf("%s: measured slowdown rises from %g to %g as ways grow %d -> %d",
					p.Name, prevSlow, slow, w-1, w)
			}
			prevSlow = slow
		}
	}
}

package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"cmpqos/internal/parallel"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// pricedDeadline bounds every run runNode makes: a run takes
// milliseconds, and a fast path that lets a job overrun its remaining
// work never completes it, so such a fault fails the run instead of
// reaching the test binary's timeout.
const pricedDeadline = 10 * time.Second

// pricingCounts is what a run priced through the model. jobEpochs counts
// the jobs of every stepped epoch's plan (applyPartition sees each one);
// advances the job-epochs advanceJob advanced through the model, the
// rest took a held pricing; deltas the per-job deltas epochDeltas
// priced.
type pricingCounts struct{ jobEpochs, advances, deltas int }

// countingModel counts a run's pricing into c.
type countingModel struct {
	model
	c *pricingCounts
}

func (m countingModel) applyPartition(byCore [][]*Job, now int64) {
	for _, jobs := range byCore {
		m.c.jobEpochs += len(jobs)
	}
	m.model.applyPartition(byCore, now)
}

func (m countingModel) advance(j *Job, instr int64) (int64, int64) {
	m.c.advances++
	return m.model.advance(j, instr)
}

func (m countingModel) steadyDeltas(j *Job, instr int64) (int64, int64, int64) {
	m.c.deltas++
	return m.model.steadyDeltas(j, instr)
}

// armedSink counts the Rejected events emitted while r's learned start
// is armed (its gen unmoved): an upper bound on the rejections it
// decided, zero if learning never happens.
type armedSink struct {
	r *Runner
	n int
}

func (s *armedSink) Event(ev trace.Event) {
	if src := s.r.src; ev.Kind == trace.Rejected && src.boundGen != 0 && src.boundGen == s.r.lac.Gen()+1 {
		s.n++
	}
}

// arrivalClock holds a Poisson run's arrivals to the stream they come
// from, which a comparison of two runs cannot: both runs read it
// through the same cursor and admitNext. The i-th Submitted event must
// carry the i-th stamp an independent ArrivalStream(seed+1, …) draws,
// and the epoch that admits it must hold that stamp: r.now ≤ stamp,
// and on the reference engine, which steps every epoch, stamp <
// r.now+EpochCycles. (A production window admits the arrivals inside
// it at its start; matchRuns holds its events to the reference's.)
// err keeps the first arrival that breaks either.
type arrivalClock struct {
	r      *Runner
	stream *workload.ArrivalStream
	n      int
	err    error
}

func (c *arrivalClock) Event(ev trace.Event) {
	r := c.r
	if ev.Kind != trace.Submitted || len(r.cfg.Script) > 0 || c.err != nil {
		return
	}
	if c.stream == nil {
		c.stream = workload.NewArrivalStream(r.seed+1, r.cfg.ProbesPerTw, r.refTW)
	}
	stamp := c.stream.Next()
	c.n++
	switch {
	case ev.Cycle != stamp:
		c.err = fmt.Errorf("arrival %d submitted at cycle %d, its stamp is %d", c.n, ev.Cycle, stamp)
	case stamp < r.now || r.reference && stamp >= r.now+r.cfg.EpochCycles:
		c.err = fmt.Errorf("arrival %d, stamped %d, admitted in the epoch at cycle %d", c.n, stamp, r.now)
	}
}

// nodeRun is what matchReference compares of one run: the report, its
// JSON and event log, and the LAC's {probes, admits, rejects, overhead
// cycles}; plus what countingModel, armedSink and arrivalClock found.
type nodeRun struct {
	rep      *Report
	json     []byte
	events   []trace.Event
	lac      [4]int64
	priced   pricingCounts
	armed    int
	arrivals error
}

// runNode runs cfg through RunContext within pricedDeadline, in
// production or, with reference set, with every fast path off.
func runNode(cfg Config, reference bool) (nodeRun, error) {
	var out nodeRun
	r, err := New(cfg)
	if err != nil {
		return out, err
	}
	r.reference = reference
	r.model = countingModel{model: r.model, c: &out.priced}
	log, armed, clock := &EventLog{}, &armedSink{r: r}, &arrivalClock{r: r}
	r.AddSink(log)
	r.AddSink(armed)
	r.AddSink(clock)
	ctx, cancel := context.WithTimeout(context.Background(), pricedDeadline)
	defer cancel()
	if out.rep, err = r.RunContext(ctx); err != nil {
		return out, fmt.Errorf("reference=%v: %w", reference, err)
	}
	var buf bytes.Buffer
	if err := out.rep.WriteJSON(&buf); err != nil {
		return out, err
	}
	out.json, out.events, out.armed, out.arrivals = buf.Bytes(), log.Events(), armed.n, clock.err
	if r.lac != nil {
		out.lac[0], out.lac[1], out.lac[2] = r.lac.Counters()
		out.lac[3] = r.lac.OverheadCycles()
	}
	return out, nil
}

// runBoth runs cfg in production and on the reference engine.
func runBoth(cfg Config) ([2]nodeRun, error) {
	got, err := runNode(cfg, false)
	if err != nil {
		return [2]nodeRun{}, err
	}
	want, err := runNode(cfg, true)
	return [2]nodeRun{got, want}, err
}

// matchReference runs cfg in production and on the reference engine,
// fails the test unless the runs match (matchRuns), and returns the
// production run.
func matchReference(t *testing.T, name string, cfg Config) nodeRun {
	t.Helper()
	runs, err := runBoth(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	matchRuns(t, name, runs)
	return runs[0]
}

// matchRuns fails the test unless the production run runs[0] and the
// reference run runs[1] have equal report JSON, event logs and LAC
// counters, production's stepped and skipped epochs add up to the
// reference's stepped ones, and each run admitted its arrivals at their
// stamps (arrivalClock).
func matchRuns(t *testing.T, name string, runs [2]nodeRun) {
	t.Helper()
	got, want := runs[0], runs[1]
	for i, run := range runs {
		if run.arrivals != nil {
			t.Errorf("%s: %s run: %v", name, [...]string{"production", "reference"}[i], run.arrivals)
		}
	}
	if !bytes.Equal(got.json, want.json) {
		t.Errorf("%s: report differs from the reference\nproduction: %s\nreference:  %s", name, got.json, want.json)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: event log differs from the reference (%d events vs %d)", name, len(got.events), len(want.events))
	}
	if got.lac != want.lac {
		t.Errorf("%s: LAC {probes, admits, rejects, overhead cycles} = %v, the reference %v", name, got.lac, want.lac)
	}
	if g, w := got.rep, want.rep; g.EpochsStepped+g.EpochsSkipped != w.EpochsStepped || w.EpochsSkipped != 0 {
		t.Errorf("%s: %d+%d epochs, the reference %d+%d", name, g.EpochsStepped, g.EpochsSkipped, w.EpochsStepped, w.EpochsSkipped)
	}
}

// proofCounts counts the window proofs of a run that reached the
// pricing, by what they met: served ones the pricing record served
// (a job in the plan and no delta priced — a fresh pricing prices its
// first job's); straddles ones whose first parity's traffic moves the
// bus across saturation, which the period-2 test must refuse; phaseP2
// ones that closed a period-2 cycle with a phased job whose second
// epoch starts in a later phase than its first, which phaseHorizon's
// match(0) exit must refuse; zeroShare ones that met a job whose
// processor share rounds to no instruction, which the pricing must
// round up to one as advanceJob does.
type proofCounts struct{ served, straddles, phaseP2, zeroShare int }

// countProofs runs cfg in production, attempting each window proof as
// RunContext does, and counts its proofs (proofCounts). It reads a
// configuration that has already matched the reference within
// pricedDeadline.
func countProofs(t *testing.T, cfg Config) (n proofCounts) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var c pricingCounts
	r.model = countingModel{model: r.model, c: &c}
	for !r.done() {
		r.step()
		for r.skipOK {
			deferred, deltas, u0 := r.ffDefer > 0, c.deltas, r.bus.Utilization()
			k := r.steadyWindow(ffChunkEpochs)
			if !deferred && r.ffPriced {
				var traffic int64
				planned := 0
				for _, jobs := range r.byCore {
					for _, j := range jobs {
						d := r.parityDeltas(0)[planned]
						planned++
						traffic += d.misses + writeBacks(d.misses)
						phased := j.InstrTotal > 0 && len(j.Profile.Phases) > 0
						if r.ffPeriod == 2 && phased && phaseIndexAt(j, j.InstrDone+d.instr) != phaseIndexAt(j, j.InstrDone) {
							n.phaseP2++
						}
					}
				}
				if c.deltas == deltas && planned > 0 {
					n.served++
				}
				if r.bus.SaturatedAt(r.bus.WindowUtilization(traffic, r.cfg.EpochCycles)) != r.bus.SaturatedAt(u0) {
					n.straddles++
				}
				for _, jobs := range r.byCore {
					for _, j := range jobs {
						share := r.cfg.EpochCycles / int64(len(jobs))
						if int64(float64(share)/r.model.cpiFor(j, r.penaltyForAt(j, u0))) <= 0 {
							n.zeroShare++
						}
					}
				}
			}
			if k <= 0 {
				break
			}
			r.applySteady(k)
		}
	}
	return n
}

// refCase is a hand-built configuration held to the reference, with
// what it must demonstrably exercise: the event kinds that must occur,
// controller retunes, skipped epochs, and the window proofs of
// proofCounts: ones that straddle bus saturation, cross a phase on a
// period-2 cycle, or price a share that rounds to no instruction.
type refCase struct {
	name                          string
	cfg                           Config
	events                        []trace.EventKind
	retunes, skips                bool
	straddles, phaseP2, zeroShare bool
}

// caseRuns holds each refCases case's production and reference runs,
// so a case that several tests cite runs once per test binary.
var caseRuns parallel.Memo[string, [2]nodeRun]

// matchCases runs each case as a subtest: the runs must match, and the
// case's own predicates hold.
func matchCases(t *testing.T, cases []refCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs, err := caseRuns.Get(tc.name, func() ([2]nodeRun, error) { return runBoth(tc.cfg) })
			if err != nil {
				t.Fatal(err)
			}
			matchRuns(t, tc.name, runs)
			got := runs[0]
			for _, k := range tc.events {
				if countEvents(got.events, k) == 0 {
					t.Errorf("no %v event occurred; the case does not exercise that path", k)
				}
			}
			if tc.retunes && got.rep.CtrlRetunes == 0 {
				t.Error("the controller never retuned")
			}
			if tc.skips && got.rep.EpochsSkipped == 0 {
				t.Errorf("the fast-forward never engaged (%d epochs stepped)", got.rep.EpochsStepped)
			}
			if tc.straddles || tc.phaseP2 || tc.zeroShare {
				n := countProofs(t, tc.cfg)
				if tc.straddles && n.straddles == 0 {
					t.Error("no window proof straddled bus saturation")
				}
				if tc.phaseP2 && n.phaseP2 == 0 {
					t.Error("no period-2 window proof met a phased job crossing a phase")
				}
				if tc.zeroShare && n.zeroShare == 0 {
					t.Error("no window proof priced a share that rounds to no instruction")
				}
			}
		})
	}
}

// pickCases returns the refCases cases with the given names, in order.
func pickCases(t *testing.T, names ...string) []refCase {
	t.Helper()
	all := refCases()
	var cases []refCase
	for _, name := range names {
		i := slices.IndexFunc(all, func(c refCase) bool { return c.name == name })
		if i < 0 {
			t.Fatalf("no case %q in refCases", name)
		}
		cases = append(cases, all[i])
	}
	return cases
}

// phased is ten jobs of the benchmark in two phases, the miss rate
// doubling halfway.
func phased(bench string) workload.Composition {
	c := workload.Composition{Name: "phased-" + bench}
	for i := 0; i < 10; i++ {
		c.Jobs = append(c.Jobs, workload.JobTemplate{
			Benchmark: bench,
			Phases:    []workload.Phase{{Until: 0.5, MPIScale: 0.5}, {Until: 1.0, MPIScale: 1.0}},
		})
	}
	return c
}

// TestFastPathsMatchReference holds the fast paths together — the plan
// cache, the closed-form windows and the arrivals they admit, the
// learned earliest start and the pricing record — to the reference
// engine, over engineGrid's configurations, All-Strict+AutoDown under
// both feedback controllers (headroom on an auto-downgrading LAC, where
// no start may be learned), and every policy on a phased workload (the
// one input a plan's pricing must not be recorded for). Each fast path
// must demonstrably serve: more epochs skipped than stepped, a learned
// start armed at half the rejections or more, and the pricing record
// serving both stepped epochs and window proofs.
func TestFastPathsMatchReference(t *testing.T) {
	var mu sync.Mutex
	var runs, armed, rejected, jobEpochs, advances, served int
	var stepped, skipped int64
	// The configurations run as parallel subtests of one group, which
	// returns when the last of them has.
	t.Run("configs", func(t *testing.T) {
		check := func(name string, cfg Config) {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				got := matchReference(t, name, cfg)
				if t.Failed() {
					return
				}
				s := countProofs(t, cfg).served
				mu.Lock()
				defer mu.Unlock()
				runs++
				stepped += got.rep.EpochsStepped
				skipped += got.rep.EpochsSkipped
				armed += got.armed
				rejected += countEvents(got.events, trace.Rejected)
				jobEpochs += got.priced.jobEpochs
				advances += got.priced.advances
				served += s
			})
		}
		engineGrid(check)
		for _, ctrl := range []string{"pid", "aimd"} {
			for seed := int64(1); seed <= 5; seed++ {
				check(fmt.Sprintf("autodown/%s/seed=%d", ctrl, seed), ctrlCfg(AllStrictAutoDown, ctrl, seed))
			}
		}
		for _, p := range Policies() {
			for _, dense := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := DefaultConfig(p, phased("bzip2"))
					cfg.Seed = seed
					if dense {
						cfg.JobInstr = 10_000_000
						cfg.StealIntervalInstr = 100_000
					}
					check(fmt.Sprintf("phased/%s/dense=%v/seed=%d", p, dense, seed), cfg)
				}
			}
		}
	})
	t.Logf("%d configurations: %d epochs stepped, %d skipped; %d of %d rejections met an armed start; %d of %d stepped job-epochs and %d window proofs served from the pricing record",
		runs, stepped, skipped, armed, rejected, jobEpochs-advances, jobEpochs, served)
	if skipped <= stepped {
		t.Errorf("%d epochs skipped and %d stepped; the identity proves little", skipped, stepped)
	}
	if armed*2 < rejected {
		t.Errorf("a learned start stood armed at %d of %d rejections; the identity proves little", armed, rejected)
	}
	if advances >= jobEpochs || served == 0 {
		t.Error("the pricing record served no stepped epoch or no window proof; the identity proves nothing")
	}
}

// TestReferenceKeepsNoFastPathState pins what makes the reference
// engine one flag read in two places: a node whose plan never holds
// proves no window, keeps no pricing, leaves no catch-up record, and,
// learning nothing, arms no start. After every epoch of a run with
// steals, acceptances and rejections, none of that state may be set; a
// fast path that does not hang off planOK fails here.
func TestReferenceKeepsNoFastPathState(t *testing.T) {
	r, err := New(planCacheCfg(Hybrid2, "bzip2"))
	if err != nil {
		t.Fatal(err)
	}
	r.reference = true
	log := &EventLog{}
	r.AddSink(log)
	for !r.done() {
		r.step()
		if wake := r.nextHorizon(); wake != r.now {
			t.Fatalf("cycle %d: a window to %d was proved", r.now, wake)
		}
		if r.planOK || r.nSkipped != 0 || !math.IsNaN(r.ffPricedAt[0]) || !math.IsNaN(r.ffPricedAt[1]) || r.ffProvedK != 0 || r.src.boundGen != 0 {
			t.Fatalf("cycle %d: planOK %v, %d epochs skipped, priced at %v, catch-up record %d, start gen %d",
				r.now, r.planOK, r.nSkipped, r.ffPricedAt, r.ffProvedK, r.src.boundGen)
		}
	}
	for _, k := range []trace.EventKind{trace.StealWay, trace.Accepted, trace.Rejected} {
		if countEvents(log.Events(), k) == 0 {
			t.Errorf("no %v event occurred; the run does not exercise that path", k)
		}
	}
}

package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cmpqos/internal/fault"
	"cmpqos/internal/qos"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// fig3Cfg rebuilds fig3's scenario configuration (internal/experiments
// cannot be imported here); fig7's two are the defaults on bzip2.
func fig3Cfg(p Policy) Config {
	comp := workload.Composition{Name: "fig3"}
	for i := 0; i < 6; i++ {
		hint := workload.HintStrict
		switch i {
		case 2, 5:
			hint = workload.HintOpportunistic
		case 1, 4:
			hint = workload.HintElastic
		}
		comp.Jobs = append(comp.Jobs, workload.JobTemplate{Benchmark: "bzip2", Hint: hint})
	}
	cfg := DefaultConfig(p, comp)
	cfg.AcceptTarget = 6
	cfg.RequestWays = 6
	cfg.DeadlineFactor = 1.5
	return cfg
}

// countEvents is how many of events are of kind.
func countEvents(events []trace.Event, kind trace.EventKind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// replayLanes is the reference fold Report.Lanes is held to: the lane of
// every job that both started and completed, rebuilt from a recorded
// event log and ordered by acceptance. Deadlines are a property of the
// job, not an event, so the caller supplies them.
func replayLanes(events []trace.Event, deadlines map[int]int64) []trace.Lane {
	type agg struct {
		lane  trace.Lane
		seen  bool
		order int
	}
	var aggs []*agg // in order of first event
	byID := map[int]*agg{}
	order := 0
	for _, e := range events {
		a := byID[e.JobID]
		if a == nil {
			a = &agg{lane: trace.Lane{JobID: e.JobID}, order: 1 << 30}
			byID[e.JobID] = a
			aggs = append(aggs, a)
		}
		switch e.Kind {
		case trace.Accepted:
			a.order = order
			order++
		case trace.Started:
			if !a.seen {
				a.lane.Start = e.Cycle
				a.seen = true
			}
		case trace.Downgraded:
			a.lane.Downgraded = true
		case trace.SwitchedBack:
			a.lane.SwitchBack = e.Cycle
		case trace.Completed:
			a.lane.End = e.Cycle
			a.lane.Met = e.DeadlineMet
		}
	}
	sort.SliceStable(aggs, func(i, j int) bool { return aggs[i].order < aggs[j].order })
	var out []trace.Lane
	for _, a := range aggs {
		if a.seen && a.lane.End > 0 {
			a.lane.Deadline = deadlines[a.lane.JobID]
			out = append(out, a.lane)
		}
	}
	return out
}

// TestLanesAssembly pins replayLanes on a hand-written log: a plain run,
// an auto-downgraded one that switched back and missed, and one that
// never completed.
func TestLanesAssembly(t *testing.T) {
	events := []trace.Event{
		{JobID: 1, Cycle: 0, Kind: trace.Accepted},
		{JobID: 2, Cycle: 5, Kind: trace.Accepted},
		{JobID: 2, Cycle: 5, Kind: trace.Started},
		{JobID: 2, Cycle: 5, Kind: trace.Downgraded},
		{JobID: 3, Cycle: 7, Kind: trace.Accepted},
		{JobID: 3, Cycle: 7, Kind: trace.Started},
		{JobID: 1, Cycle: 10, Kind: trace.Started},
		{JobID: 2, Cycle: 80, Kind: trace.SwitchedBack},
		{JobID: 1, Cycle: 110, Kind: trace.Completed, DeadlineMet: true},
		{JobID: 2, Cycle: 200, Kind: trace.Completed},
	}
	got := replayLanes(events, map[int]int64{1: 150, 2: 180})
	want := []trace.Lane{
		{JobID: 1, Start: 10, End: 110, Deadline: 150, Met: true},
		{JobID: 2, Start: 5, End: 200, Deadline: 180, SwitchBack: 80, Downgraded: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lanes = %+v, want %+v", got, want)
	}
}

// TestLanesMatchEventReplay holds the lanes the runner keeps on its job
// rows to the reference fold: replayLanes over the attached event log of
// the same run must equal Report.Lanes. The grid
// is every policy on the paper's three workloads (fig7's two scenarios
// among them), fig3's three, a wall-clock termination (a terminated job
// draws no lane), and seeded fault storms — which must, between them,
// suspend and restart a job that later completes (Job.Started is
// overwritten, the lane keeps the first start), downgrade one a second
// time, and switch one back twice (the lane keeps the last). It also
// pins that the attached log is the log the runner used to keep for
// itself: every submission is there, answered by exactly one Accepted
// or Rejected.
func TestLanesMatchEventReplay(t *testing.T) {
	type laneCase struct {
		name string
		cfg  Config
	}
	var cases []laneCase
	for _, w := range []workload.Composition{workload.Single("bzip2"), workload.Mix1(), workload.Mix2()} {
		for _, p := range append(Policies(), UCPPart) {
			cases = append(cases, laneCase{p.String() + "/" + w.Name, DefaultConfig(p, w)})
		}
	}
	for _, p := range []Policy{AllStrict, Hybrid1, Hybrid2} {
		cases = append(cases, laneCase{"fig3/" + p.String(), fig3Cfg(p)})
	}
	overrun := planCacheCfg(Hybrid2, "bzip2")
	overrun.EnforceWallClock, overrun.overrunFactor, overrun.overrunJobSlot = true, 3, 0
	cases = append(cases, laneCase{"wallclock-termination", overrun})
	for _, rate := range []float64{4, 8, 16} {
		for _, p := range []Policy{AllStrict, AllStrictAutoDown, Hybrid2} {
			for seed := int64(1); seed <= 8; seed++ {
				cases = append(cases, laneCase{
					name: fmt.Sprintf("%v/storm-rate%v-seed%d", p, rate, seed),
					cfg:  faultCfg(p, fault.Generate(seed, rate, fault.DefaultHorizon, 4, 16)),
				})
			}
		}
	}

	var restarted, redowngraded, reswitched, laneless int
	for _, tc := range cases {
		rep, log := mustRunLogged(t, tc.cfg)
		deadlines := make(map[int]int64, len(rep.Jobs))
		for _, j := range rep.Jobs {
			deadlines[j.ID] = j.Deadline
		}
		events := log.Events()
		if want := replayLanes(events, deadlines); len(want) != len(rep.Lanes) || len(want) > 0 && !reflect.DeepEqual(rep.Lanes, want) {
			t.Errorf("%s: Report.Lanes differ from the event-log replay\n got: %+v\nwant: %+v", tc.name, rep.Lanes, want)
		}
		sub, acc, rej := countEvents(events, trace.Submitted), countEvents(events, trace.Accepted), countEvents(events, trace.Rejected)
		if rej != rep.Rejected || acc != rep.AcceptedJobs || sub != acc+rej || sub == 0 {
			t.Errorf("%s: log holds %d Submitted, %d Accepted, %d Rejected; report counts %d accepted, %d rejected",
				tc.name, sub, acc, rej, rep.AcceptedJobs, rep.Rejected)
		}
		laneless += len(rep.Jobs) - len(rep.Lanes)
		type key struct {
			id   int
			kind trace.EventKind
		}
		n := map[key]int{}
		for _, e := range log.Events() {
			n[key{e.JobID, e.Kind}]++
		}
		for _, l := range rep.Lanes {
			if n[key{l.JobID, trace.Started}] > 1 {
				restarted++
			}
			if n[key{l.JobID, trace.Downgraded}] > 1 {
				redowngraded++
			}
			if n[key{l.JobID, trace.SwitchedBack}] > 1 {
				reswitched++
			}
		}
	}
	if restarted == 0 || redowngraded == 0 || reswitched == 0 || laneless == 0 {
		t.Errorf("grid too tame: %d restarted, %d re-downgraded, %d twice-switched-back lanes, %d jobs without one; each must occur",
			restarted, redowngraded, reswitched, laneless)
	}
}

// quietestAlloc returns the smallest TotalAlloc delta of allocRounds
// calls of fn. TotalAlloc is process-wide, so the quietest of a few
// rounds is the reading — a stray runtime allocation lands in one round,
// one that fn makes in all of them.
func quietestAlloc(fn func()) uint64 {
	quietest := ^uint64(0)
	for round := 0; round < allocRounds; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got < quietest {
			quietest = got
		}
	}
	return quietest
}

const allocRounds = 5

// TestRejectedSubmitAllocatesNothing pins the rejection path of the
// default pipeline (no sink attached): under the paper's arrival
// pressure rejected probes outnumber accepted jobs ~80:1, so a probe
// that allocates is the run's allocation profile. Bytes are counted, not
// mallocs: a log that grows by 16k-event blocks allocates in so few
// mallocs that testing.AllocsPerRun's integer division reads zero.
func TestRejectedSubmitAllocatesNothing(t *testing.T) {
	// Strict under every policy; the phased one (as examples/phases builds
	// it) has a formatted tw key, which only the template table formats.
	phased := workload.JobTemplate{Benchmark: "bzip2", Phases: []workload.Phase{
		{Until: 0.5, MPIScale: 0.5}, {Until: 1.0, MPIScale: 1.0},
	}}
	for _, w := range []workload.Composition{
		workload.Single("bzip2"),
		{Name: "phased", Jobs: []workload.JobTemplate{phased}},
	} {
		for _, p := range []Policy{AllStrict, Hybrid2, AllStrictAutoDown} {
			name := fmt.Sprintf("%v/%s", p, w.Name)
			r, err := New(DefaultConfig(p, w))
			if err != nil {
				t.Fatal(err)
			}
			for r.submitTemplate(0, workload.DeadlineTight, 0) {
				if r.acceptedN > 64 {
					t.Fatalf("%s: node never fills", name)
				}
			}
			const probes = 10_000
			quietest := quietestAlloc(func() {
				for i := 0; i < probes; i++ {
					if r.submitTemplate(0, workload.DeadlineTight, 0) {
						t.Fatalf("%s: a full node accepted probe %d", name, i)
					}
				}
			})
			if quietest != 0 {
				t.Errorf("%s: %d rejected probes allocated %d bytes, want 0", name, probes, quietest)
			}
			if r.rejected < allocRounds*probes {
				t.Errorf("%s: rejected counter %d after %d rejected probes", name, r.rejected, allocRounds*probes)
			}
		}
	}
}

// TestCapacityMissRejectionAllocatesNothing pins the rejection of a
// request wider than the capacity dark ways leave: the LAC formats that
// reason on every Admit and Peek, so after the first rejection every
// arrival through admitNext must be decided by the learned "never"
// start and allocate nothing. The arrival and deadline tapes are drawn
// ahead on twin cursors, so their growth is not counted.
func TestCapacityMissRejectionAllocatesNothing(t *testing.T) {
	for _, p := range []Policy{AllStrict, Hybrid2, AllStrictAutoDown} {
		r, err := New(DefaultConfig(p, workload.Single("bzip2")))
		if err != nil {
			t.Fatal(err)
		}
		r.lac.SetCapacity(qos.ResourceVector{Cores: r.cfg.Cores, CacheWays: r.reqWays - 1}, 0)
		const probes = 10_000
		arr := workload.NewArrivals(r.seed+1, r.cfg.ProbesPerTw, r.refTW)
		dl := workload.NewDeadlineMix(r.seed)
		for i := 0; i < (allocRounds+1)*probes; i++ {
			arr.Next()
			dl.Next()
		}
		src := &arrivalSource{
			arrivals: workload.NewArrivals(r.seed+1, r.cfg.ProbesPerTw, r.refTW),
			dlmix:    workload.NewDeadlineMix(r.seed),
		}
		src.nextArr = src.arrivals.Next()
		r.src = src
		submit := func() { // the arrivals stamped at the next arrival's cycle
			if _, ok, accepted := r.admitNext(src.nextArr + 1); !ok || accepted {
				t.Fatalf("%v: arrival on a node narrower than its request: submitted %v, accepted %v", p, ok, accepted)
			}
		}
		submit()
		quietest := quietestAlloc(func() {
			for i := 0; i < probes; i++ {
				submit()
			}
		})
		if quietest != 0 {
			t.Errorf("%v: %d capacity-miss rejections allocated %d bytes, want 0", p, probes, quietest)
		}
		if want := 1 + allocRounds*probes; r.rejected < want {
			t.Errorf("%v: rejected counter %d after %d submissions", p, r.rejected, want)
		}
	}
}

// TestFoldCompletedReportRenders pins the two report accessors that
// assumed per-job rows: a streaming (FoldCompleted) report has neither
// rows nor lanes, so its Gantt is the empty chart — it used to
// dereference the nil recorder — and its Throughput is computed from the
// accepted-job count, equal to the batch report's on the same config
// (it used to divide len(Jobs) == 0).
func TestFoldCompletedReportRenders(t *testing.T) {
	cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
	batch := mustRun(t, cfg)
	cfg.FoldCompleted = true
	fold := mustRun(t, cfg)
	if len(fold.Jobs) != 0 || len(fold.Lanes) != 0 {
		t.Fatalf("fold-mode report carries %d rows, %d lanes", len(fold.Jobs), len(fold.Lanes))
	}
	if got := fold.Gantt(40); got != "(no completed jobs)\n" {
		t.Errorf("fold-mode Gantt = %q", got)
	}
	if len(batch.Lanes) == 0 {
		t.Error("batch-mode report draws no lanes")
	}
	if bt, ft := batch.Throughput(), fold.Throughput(); bt <= 0 || ft != bt {
		t.Errorf("throughput: batch %v, fold %v; want equal and positive", bt, ft)
	}
	// The accepted count is a scalar of the run, not the length of the
	// rows fold mode drops: the summary's head and the JSON agree.
	head := func(rep *Report) string {
		lines := strings.SplitN(rep.Summary(), "\n", 3)
		return lines[0] + "\n" + lines[1]
	}
	if bh, fh := head(batch), head(fold); fh != bh {
		t.Errorf("summary: batch %q, fold %q", bh, fh)
	}
	accepted := func(rep *Report) int {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct{ Accepted int }
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.Accepted
	}
	if ba, fa := accepted(batch), accepted(fold); ba != len(batch.Jobs) || fa != ba {
		t.Errorf("JSON accepted: batch %d (%d rows), fold %d", ba, len(batch.Jobs), fa)
	}
}

// BenchmarkRunEventLog prices the attached event log on one paper-scale
// run (DESIGN §9 quotes it): the same configuration with no sink and
// with an EventLog, -benchmem for the bytes.
func BenchmarkRunEventLog(b *testing.B) {
	cfg := DefaultConfig(AllStrict, workload.Single("bzip2"))
	for _, attach := range []bool{false, true} {
		name := "detached"
		if attach {
			name = "attached"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if attach {
					r.AddSink(&EventLog{})
				}
				if _, err := r.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

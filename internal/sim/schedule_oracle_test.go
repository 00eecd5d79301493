package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cmpqos/internal/qos"
	"cmpqos/internal/steal"
	"cmpqos/internal/workload"
)

// The list-based scheduler and allocator the production stages replaced
// (schedule.go, allocate.go): every job list of a placement built
// explicitly, per-core state in slices. They share nothing with the
// production code but the Runner fields they read, so
// FuzzAssignMatchesListScheduler can see a bug in the production passes
// that Runner.reference, which runs the same Assign and Allocate, cannot.

// listReservedScheduler is the reserved/packed scheduler as lists.
// spills and displaced count what the seed corpus must reach: a packed
// spill pick, and an opportunistic job moved off a failed core.
type listReservedScheduler struct {
	packOpp   bool
	spills    int
	displaced int
}

func (s *listReservedScheduler) Assign(r *Runner) [][]*Job {
	cores := r.cfg.Cores
	down := make([]bool, cores)
	for c := range down {
		down[c] = r.coreDown&(1<<c) != 0
	}
	byCore := make([][]*Job, cores)
	reservedOn := make([]*Job, cores)
	var needCore, opps []*Job
	for _, j := range r.accepted {
		if j.State != StateRunning {
			continue
		}
		if j.ReservedRunning(r.now) {
			if j.Core >= 0 && !down[j.Core] && reservedOn[j.Core] == nil {
				reservedOn[j.Core] = j
			} else {
				j.Core = -1
				needCore = append(needCore, j)
			}
		} else {
			opps = append(opps, j)
		}
	}
	for _, j := range needCore {
		for c := 0; c < cores; c++ {
			if reservedOn[c] == nil && !down[c] {
				reservedOn[c] = j
				j.Core = int32(c)
				r.model.jobStarted(j)
				break
			}
		}
	}
	load := make([]int, cores)
	var freeCores []int
	for c := 0; c < cores; c++ {
		if reservedOn[c] == nil && !down[c] {
			freeCores = append(freeCores, c)
		}
	}
	var unplaced []*Job
	for _, j := range opps {
		if j.Core >= 0 && !down[j.Core] && reservedOn[j.Core] == nil {
			load[j.Core]++
			continue
		}
		if j.Core >= 0 && down[j.Core] {
			s.displaced++
		}
		j.Core = -1
		unplaced = append(unplaced, j)
	}
	for _, j := range unplaced {
		if len(freeCores) == 0 {
			continue
		}
		best := freeCores[0]
		packed := false
		if s.packOpp {
			for _, c := range freeCores {
				if load[c] < qos.OpportunisticPerCore {
					best, packed = c, true
					break
				}
			}
		}
		if !packed {
			if s.packOpp {
				s.spills++
			}
			for _, c := range freeCores {
				if load[c] < load[best] {
					best = c
				}
			}
		}
		j.Core = int32(best)
		load[best]++
		r.model.jobStarted(j)
	}
	for _, j := range r.accepted {
		if j.State == StateRunning && j.Core >= 0 {
			byCore[j.Core] = append(byCore[j.Core], j)
		}
	}
	return byCore
}

// listSharedScheduler is the shared scheduler as lists.
type listSharedScheduler struct{}

func (listSharedScheduler) Assign(r *Runner) [][]*Job {
	byCore := make([][]*Job, r.cfg.Cores)
	load := make([]int, r.cfg.Cores)
	for c := range load {
		if r.coreDown&(1<<c) != 0 {
			load[c] = 1 << 30
		}
	}
	var unplaced []*Job
	for _, j := range r.accepted {
		if j.State != StateRunning {
			continue
		}
		if j.Core >= 0 {
			load[j.Core]++
		} else {
			unplaced = append(unplaced, j)
		}
	}
	for _, j := range unplaced {
		c := minIndex(load)
		j.Core = int32(c)
		load[c]++
		r.model.jobStarted(j)
	}
	for _, j := range r.accepted {
		if j.State == StateRunning {
			byCore[j.Core] = append(byCore[j.Core], j)
		}
	}
	return byCore
}

// listReservedAllocator is the reserved allocator with its list of
// opportunistic jobs.
type listReservedAllocator struct{}

func (listReservedAllocator) Allocate(r *Runner, byCore [][]*Job) {
	reservedWays := 0
	var oppJobs []*Job
	for _, jobs := range byCore {
		for _, j := range jobs {
			if j.ReservedRunning(r.now) {
				w := int(j.WaysReserved)
				if j.Stealer != nil {
					w = j.Stealer.Ways()
				}
				j.setWaysF(float64(w))
				reservedWays += w
			} else {
				oppJobs = append(oppJobs, j)
			}
		}
	}
	pool := float64(r.cfg.L2.Ways - r.waysDown() - reservedWays)
	if len(oppJobs) > 0 {
		per := pool / float64(len(oppJobs))
		if per < 0.25 {
			per = 0.25
		}
		for _, j := range oppJobs {
			j.setWaysF(per)
		}
	}
}

// startLog is a model that records the order of jobStarted calls; the
// scheduler calls nothing else on it.
type startLog struct {
	model
	ids []int
}

func (m *startLog) jobStarted(j *Job) { m.ids = append(m.ids, j.ID) }

// assignCase is one decoded fuzz input: a node's cores, failed cores,
// dark ways and running, waiting and finished jobs.
type assignCase struct {
	sched    int // 0 reserved, 1 packed, 2 shared
	cores    int
	down     uint64
	waysDown int
	jobs     []Job
}

// decodeAssignCase reads byte 0 as the scheduler, byte 1 as the core
// count, bytes 2–9 as the failed-core mask, byte 10 as dark ways, and
// then three bytes per job: kind (state, mode, auto-downgrade,
// switch-back, stealer), core (-1 or a core), reserved ways.
func decodeAssignCase(data []byte) (assignCase, bool) {
	if len(data) < 11 {
		return assignCase{}, false
	}
	c := assignCase{sched: int(data[0] % 3), cores: 1 + int(data[1]%64)}
	mask := ^uint64(0)
	if c.cores < 64 {
		mask = 1<<c.cores - 1
	}
	c.down = binary.LittleEndian.Uint64(data[2:10]) & mask
	c.waysDown = int(data[10] % 24)
	for i, b := 0, data[11:]; len(b) >= 3 && i < 200; i, b = i+1, b[3:] {
		kind, core, ways := b[0], b[1], b[2]
		j := Job{ID: i + 1, Core: int32(int(core)%(c.cores+1) - 1), WaysReserved: 1 + int32(ways%16)}
		j.State = []JobState{StateWaiting, StateRunning, StateRunning, StateDone}[kind%4]
		switch (kind >> 2 & 7) % 3 {
		case 0:
			j.Mode = qos.Opportunistic()
		case 1:
			j.Mode = qos.Strict()
		default:
			j.Mode = qos.Elastic(0.5)
		}
		j.AutoDowngraded = kind&seedAutoDown != 0
		j.SwitchBack = assignNow + 1 // not due yet
		if kind&seedDue != 0 {
			j.SwitchBack = assignNow - 1
		}
		if kind&seedStealer != 0 && j.Mode.Kind == qos.KindElastic {
			j.Stealer = steal.New(j.Mode.Slack, int(j.WaysReserved), 1)
			j.Stealer.Shed(int(ways >> 4 & 1))
		}
		c.jobs = append(c.jobs, j)
	}
	return c, true
}

// assignNow is the fuzzed node's clock.
const assignNow = 1_000_000

// assignRun is one side of the comparison: a node holding its own copy
// of the case's jobs, with the scheduler's placements and the starts it
// reported.
type assignRun struct {
	r      *Runner
	byCore [][]*Job
	starts *startLog
}

func runAssign(c assignCase, prof *jobProfile, sched Scheduler, alloc WayAllocator) assignRun {
	cfg := DefaultConfig(Hybrid2, workload.Single("bzip2"))
	cfg.Cores = c.cores
	log := &startLog{}
	r := &Runner{nodeShared: &nodeShared{cfg: cfg}, model: log, now: assignNow,
		coreDown: c.down, byCore: make([][]*Job, c.cores)}
	if c.waysDown > 0 {
		r.faults = &faultState{waysDown: c.waysDown}
	}
	for i := range c.jobs {
		j := c.jobs[i]
		j.Profile = prof
		j.WaysF = math.NaN() // set by the allocator, or left as is by both
		r.accepted = append(r.accepted, &j)
	}
	byCore := sched.Assign(r)
	alloc.Allocate(r, byCore)
	return assignRun{r: r, byCore: byCore, starts: log}
}

// assignMismatch compares a production run with the oracle's: the
// per-core lists, every job's core and way share, and the jobStarted
// order. It returns "" when they agree.
func assignMismatch(got, want assignRun) string {
	for c := range want.byCore {
		if g, w := jobIDs(got.byCore[c]), jobIDs(want.byCore[c]); fmt.Sprint(g) != fmt.Sprint(w) {
			return fmt.Sprintf("core %d runs %v, oracle %v", c, g, w)
		}
	}
	for i, w := range want.r.accepted {
		g := got.r.accepted[i]
		if g.Core != w.Core {
			return fmt.Sprintf("job %d on core %d, oracle %d", w.ID, g.Core, w.Core)
		}
		if math.Float64bits(g.WaysF) != math.Float64bits(w.WaysF) || math.Float64bits(g.mpifCur) != math.Float64bits(w.mpifCur) {
			return fmt.Sprintf("job %d gets %v ways, oracle %v", w.ID, g.WaysF, w.WaysF)
		}
	}
	if g, w := fmt.Sprint(got.starts.ids), fmt.Sprint(want.starts.ids); g != w {
		return fmt.Sprintf("jobStarted order %s, oracle %s", g, w)
	}
	return ""
}

func jobIDs(jobs []*Job) []int {
	ids := make([]int, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// seedHead encodes a seed's node: scheduler (0 reserved, 1 packed,
// 2 shared), cores, failed-core mask and dark ways.
func seedHead(sched byte, cores int, down uint64, waysDown byte) []byte {
	b := []byte{sched, byte(cores - 1)}
	b = binary.LittleEndian.AppendUint64(b, down)
	return append(b, waysDown)
}

// seedJob encodes one job of a seed: state 0 waiting, 1 running, 3 done;
// mode 0 opportunistic, 1 strict, 2 elastic; flags seedAutoDown, seedDue
// (its switch-back is due) and seedStealer; core -1 for none.
func seedJob(state, mode, flags byte, core int, ways byte) []byte {
	return []byte{state | mode<<2 | flags, byte(core + 1), ways}
}

const (
	seedAutoDown = 0x20
	seedDue      = 0x40
	seedStealer  = 0x80
)

// assignSeeds are the corpus every tier-1 run replays: each scheduler on
// a healthy and a degraded node, and the two placements no generated
// configuration reaches — a packed node whose free cores are all at the
// pin cap (the spill pick), and opportunistic jobs pinned to a core that
// has failed.
var assignSeeds = func() [][]byte {
	seed := func(head []byte, jobs ...[]byte) []byte {
		for _, j := range jobs {
			head = append(head, j...)
		}
		return head
	}
	var wide [][]byte // 64 cores: more reserved jobs than healthy cores
	for i := 0; i < 40; i++ {
		wide = append(wide, seedJob(1, 1, 0, i*3%64, 4), seedJob(1, 0, 0, i*7%65-1, 0))
	}
	return [][]byte{
		// Reserved, 4 cores, core 2 down: strict, elastic (one with a
		// stealer), auto-downgraded before and after its switch-back,
		// and opportunistic jobs; two reserved jobs claim core 1.
		seed(seedHead(0, 4, 1<<2, 2),
			seedJob(1, 1, 0, 1, 7), seedJob(1, 2, 0, 1, 3), seedJob(1, 2, seedStealer, 2, 5),
			seedJob(1, 1, seedAutoDown, -1, 7), seedJob(1, 1, seedAutoDown|seedDue, -1, 7),
			seedJob(1, 0, 0, 2, 0), seedJob(1, 0, 0, -1, 0), seedJob(0, 0, 0, 0, 0), seedJob(3, 1, 0, 3, 2)),
		// Packed, 2 cores: core 0 holds five opportunistic jobs, core 1
		// four, and three more arrive: each spills to the least loaded.
		seed(seedHead(1, 2, 0, 0),
			seedJob(1, 0, 0, 0, 0), seedJob(1, 0, 0, 0, 0), seedJob(1, 0, 0, 0, 0), seedJob(1, 0, 0, 0, 0), seedJob(1, 0, 0, 0, 0),
			seedJob(1, 0, 0, 1, 0), seedJob(1, 0, 0, 1, 0), seedJob(1, 0, 0, 1, 0), seedJob(1, 0, 0, 1, 0),
			seedJob(1, 0, 0, -1, 0), seedJob(1, 0, 0, -1, 0), seedJob(1, 0, 0, -1, 0)),
		// Packed, 3 cores, core 0 down: two opportunistic jobs on it and
		// one unplaced move; a reserved job there moves to a healthy core.
		seed(seedHead(1, 3, 1, 0),
			seedJob(1, 0, 0, 0, 0), seedJob(1, 0, 0, 0, 0), seedJob(1, 1, 0, 0, 4), seedJob(1, 0, 0, -1, 0)),
		// Reserved, 3 cores, core 1 down: opportunistic jobs on it, on a
		// free core and unplaced; a reserved job on core 0.
		seed(seedHead(0, 3, 1<<1, 0),
			seedJob(1, 0, 0, 1, 0), seedJob(1, 0, 0, 2, 0), seedJob(1, 0, 0, -1, 0), seedJob(1, 1, 0, 0, 6)),
		// Shared, 4 cores, core 3 down: running jobs placed and not.
		seed(seedHead(2, 4, 1<<3, 1),
			seedJob(1, 0, 0, 0, 0), seedJob(1, 1, 0, 0, 0), seedJob(1, 0, 0, -1, 0), seedJob(0, 0, 0, -1, 0),
			seedJob(1, 2, 0, 3, 0), seedJob(1, 0, 0, -1, 0)),
		seed(seedHead(0, 64, 0x5555555555555555, 0), wide...),
	}
}()

// FuzzAssignMatchesListScheduler holds the production scheduler and
// reserved allocator, which keep no list between passes, to the
// list-based ones they replaced, on any node: the per-core lists, every
// job's core, the order of jobStarted calls and every way share. The
// seed corpus runs the packed spill pick and the move off a failed core.
func FuzzAssignMatchesListScheduler(f *testing.F) {
	node, err := New(DefaultConfig(Hybrid2, workload.Single("bzip2")))
	if err != nil {
		f.Fatal(err)
	}
	prof := node.tmpl[0].prof
	var spills, displaced int
	for _, seed := range assignSeeds {
		c, ok := decodeAssignCase(seed)
		if !ok {
			f.Fatalf("seed %v does not decode", seed)
		}
		if c.sched < 2 {
			o := &listReservedScheduler{packOpp: c.sched == 1}
			runAssign(c, prof, o, listReservedAllocator{})
			spills += o.spills
			displaced += o.displaced
		}
		f.Add(seed)
	}
	if spills == 0 || displaced == 0 {
		f.Fatalf("the seeds run %d spill picks and move %d jobs off failed cores; want both", spills, displaced)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeAssignCase(data)
		if !ok {
			return
		}
		var got, want assignRun
		switch c.sched {
		case 2:
			got = runAssign(c, prof, sharedScheduler{}, reservedAllocator{})
			want = runAssign(c, prof, listSharedScheduler{}, listReservedAllocator{})
		default:
			got = runAssign(c, prof, reservedScheduler{packOpp: c.sched == 1}, reservedAllocator{})
			want = runAssign(c, prof, &listReservedScheduler{packOpp: c.sched == 1}, listReservedAllocator{})
		}
		if msg := assignMismatch(got, want); msg != "" {
			t.Fatalf("%d cores, down %#x, scheduler %d: %s", c.cores, c.down, c.sched, msg)
		}
	})
}

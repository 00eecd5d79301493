package qos

import (
	"bytes"
	"math/rand"
	"testing"
)

// Differential testing of the GAC's bounded scan: whatever the bounds
// table has learned, pruned or forgotten, a committed GAC.Plan must
// answer exactly as the probe-every-node reference does — same node,
// same admitted mode, same Decision — and leave every LAC in
// byte-identical durable state (the charged probes and occupancy cycles
// are in the snapshot). A plan that is dropped instead of committed must
// leave no trace at all. The harness reads raw bytes as a fleet
// description plus an op stream, applies it to two identical fleets in
// lock-step, and fails on the first divergence.

type gacJob struct {
	id, node int
	mode     Mode
}

type gacPair struct {
	t          *testing.T
	fast       *GAC
	naive      *naiveGAC
	fastNodes  []*LAC
	naiveNodes []*LAC
	jobs       []gacJob
	clock      int64
	nextJob    int
	sparseIDs  bool
	stepShift  uint
	waysMod    int
	octMod     int
}

// newGACPair decodes the four header bytes into two identical fleets.
func newGACPair(t *testing.T, h [4]byte) *gacPair {
	p := &gacPair{
		t:         t,
		nextJob:   1,
		sparseIDs: h[0]&0x80 != 0,
		stepShift: uint(h[2] % 12),
		waysMod:   1 + int(h[3]%8),
		octMod:    1 + int(h[3]>>3)%12,
	}
	n := 1 + int(h[1])%24
	for i := 0; i < n; i++ {
		capacity := ResourceVector{Cores: 4, CacheWays: 16}
		if h[0]&0x10 != 0 { // mixed node capacities
			capacity = ResourceVector{Cores: 1 + (i*3)%5, CacheWays: 4 + (i*7)%20}
		}
		if h[0]&0x40 != 0 {
			capacity.MemoryMB = 128
		}
		var opts []LACOption
		if h[0]&0x04 != 0 && i%3 == 1 {
			opts = append(opts, WithAutoDowngrade(), WithAutoDowngradeMinSlack(0.5))
		}
		if h[0]&0x08 != 0 && i%4 == 2 {
			opts = append(opts, WithAutoDowngrade()) // no slack floor, as qosd -autodowngrade
		}
		fast, naive := NewLAC(capacity, opts...), NewLAC(capacity, opts...)
		if h[0]&0x20 != 0 && i%2 == 1 {
			fast.SetHeadroom(2)
			naive.SetHeadroom(2)
		}
		p.fastNodes = append(p.fastNodes, fast)
		p.naiveNodes = append(p.naiveNodes, naive)
	}
	p.fast = NewGAC(p.fastNodes...)
	p.fast.strategy = Strategy(h[0] % 4)
	p.naive = &naiveGAC{nodes: p.naiveNodes, strategy: p.fast.strategy}
	return p
}

// request decodes a submission from op bytes 1–4 at the current clock.
func (p *gacPair) request(op []byte) Request {
	vec := ResourceVector{Cores: 1 + int(op[1]%2), CacheWays: 1 + int(op[2])%p.waysMod}
	if op[1]&0x80 != 0 && p.fastNodes[0].timeline.Capacity().MemoryMB != 0 {
		vec.MemoryMB = 32 * (1 + int(op[1]>>4)%4)
	}
	if op[1]&0x70 == 0x70 {
		vec.Cores += 3 // exceeds the smaller mixed capacities
	}
	tw := int64(8+op[3]%8) << (int(op[3]>>4) % p.octMod)
	rum := RUM{Resources: vec, MaxWallClock: tw}
	switch k := int64(op[4] >> 6); k {
	case 0: // no deadline
	default:
		rum.Deadline = p.clock + tw*k + tw/5
	}
	if op[3] == 0xff {
		rum.MaxWallClock, rum.Deadline = 0, 0 // no timeslot: held forever
	}
	mode := Strict()
	switch m := op[4] % 10; {
	case m >= 8:
		mode = Opportunistic()
	case m >= 6:
		mode = Elastic(0.05 + float64(op[4]%7)/16)
	}
	req := Request{JobID: p.jobID(), Target: rum, Mode: mode, Arrival: p.clock}
	if op[2] == 0xfe {
		req.Target = OPM{IPC: 1} // not convertible: every node refuses
	}
	return req
}

// jobID issues the next job id: 1, 2, 3, … or, on sparse fleets, ids of
// both signs and one to eight digits — map keys whose string order is not
// their numeric order. No id repeats (every factor is 1 mod 4, so an
// id's magnitude mod 4 names its factor): a job holds one reservation
// per node, and the daemon refuses a duplicate id.
func (p *gacPair) jobID() int {
	n := p.nextJob
	p.nextJob++
	if !p.sparseIDs {
		return n
	}
	id := n * [4]int{1, 13, 977, 40009}[n%4]
	if n%3 == 1 {
		id = -id
	}
	return id
}

// plan plans a submission on the fast fleet, through the negotiation
// ladder or not.
func (p *gacPair) plan(req Request, negotiate bool) Placement {
	if negotiate {
		return p.fast.PlanOrNegotiate(req, 0.1)
	}
	return p.fast.Plan(req)
}

func (p *gacPair) admitted(req Request, node int, mode Mode, dec Decision) {
	if dec.Accepted {
		p.jobs = append(p.jobs, gacJob{id: req.JobID, node: node, mode: mode})
	}
}

// step applies one six-byte op to both fleets.
func (p *gacPair) step(op []byte) {
	p.t.Helper()
	p.clock += int64(op[5]) << p.stepShift >> 8
	n := len(p.fastNodes)
	switch kind := op[0] % 16; {
	case kind <= 8:
		req, negotiate := p.request(op), kind == 8
		if op[0]&0x80 != 0 {
			// Plan on the fast fleet only and drop the plan, as the daemon
			// does when its log refuses the record: the byte comparison
			// at the end of the stream shows whatever it left behind.
			p.plan(req, negotiate)
		}
		fp := p.plan(req, negotiate)
		fd := p.fast.Commit(fp)
		var nn int
		var nm Mode
		var nd Decision
		if negotiate {
			nn, nm, nd = p.naive.SubmitOrNegotiate(req, 0.1)
		} else {
			nn, nm, nd = p.naive.Submit(req)
		}
		if fp.Node != nn || fp.Mode != nm || fd != nd {
			p.t.Fatalf("negotiate=%v %+v: node %d %v %+v, probe-all node %d %v %+v",
				negotiate, req, fp.Node, fp.Mode, fd, nn, nm, nd)
		}
		p.admitted(req, fp.Node, fp.Mode, fd)
	case kind == 9: // an admission the GAC never sees
		req, i := p.request(op), int(op[0]>>4)%n
		fd, nd := p.fastNodes[i].Admit(req), p.naiveNodes[i].Admit(req)
		if fd != nd {
			p.t.Fatalf("direct Admit on node %d: %+v != %+v", i, fd, nd)
		}
		p.admitted(req, i, req.Mode, fd)
	case kind <= 11: // completion, straight to the LAC as the daemon does
		if len(p.jobs) == 0 {
			return
		}
		k := int(op[1]) % len(p.jobs)
		j := p.jobs[k]
		p.jobs = append(p.jobs[:k], p.jobs[k+1:]...)
		p.fastNodes[j.node].Complete(j.id, j.mode, p.clock)
		p.naiveNodes[j.node].Complete(j.id, j.mode, p.clock)
	case kind == 12: // capacity fault or recovery
		i := int(op[1]) % n
		nc := ResourceVector{Cores: 1 + int(op[2]%6), CacheWays: 1 + int(op[3]%24),
			MemoryMB: p.fastNodes[i].timeline.Capacity().MemoryMB}
		fe, ne := p.fastNodes[i].SetCapacity(nc, p.clock), p.naiveNodes[i].SetCapacity(nc, p.clock)
		if len(fe) != len(ne) {
			p.t.Fatalf("SetCapacity(%v) on node %d evicted %d != %d", nc, i, len(fe), len(ne))
		}
	case kind == 13:
		i := int(op[1]) % n
		p.fastNodes[i].SetHeadroom(int(op[2] % 6))
		p.naiveNodes[i].SetHeadroom(int(op[2] % 6))
	case kind == 14: // elastic way-shedding
		if len(p.jobs) == 0 {
			return
		}
		j := p.jobs[int(op[1])%len(p.jobs)]
		vec := ResourceVector{Cores: 1, CacheWays: 1 + int(op[2]%3)}
		if f, nv := p.fastNodes[j.node].ShrinkReservation(j.id, vec), p.naiveNodes[j.node].ShrinkReservation(j.id, vec); f != nv {
			p.t.Fatalf("ShrinkReservation(%d,%v) %v != %v", j.id, vec, f, nv)
		}
	default: // the next arrival stamps run backwards (at times below zero)
		p.clock = max(p.clock-int64(op[1])<<p.stepShift>>4, -8)
	}
}

// checkState compares every node's durable state byte for byte.
func (p *gacPair) checkState() {
	p.t.Helper()
	for i := range p.fastNodes {
		var f, n bytes.Buffer
		if err := p.fastNodes[i].Snapshot(&f); err != nil {
			p.t.Fatal(err)
		}
		if err := p.naiveNodes[i].Snapshot(&n); err != nil {
			p.t.Fatal(err)
		}
		if !bytes.Equal(f.Bytes(), n.Bytes()) {
			p.t.Fatalf("node %d snapshot diverged from probe-all\nbounded:\n%s\nprobe-all:\n%s", i, f.Bytes(), n.Bytes())
		}
	}
}

func runGACEquivalence(t *testing.T, data []byte) *gacPair {
	var h [4]byte
	data = data[copy(h[:], data):]
	p := newGACPair(t, h)
	for ; len(data) >= 6; data = data[6:] {
		p.step(data[:6])
	}
	p.checkState()
	return p
}

// gacStream builds a seeded stream whose op kinds are drawn from kinds
// (values of op[0]%16, see step).
func gacStream(seed int64, h [4]byte, ops int, kinds []byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 4+6*ops)
	rng.Read(data)
	copy(data, h[:])
	for i := 4; i < len(data); i += 6 {
		data[i] = data[i]&0xf0 | kinds[rng.Intn(len(kinds))]
	}
	return data
}

// FuzzGACEquivalence drives arbitrary fleets and op streams through the
// bounded scan and the probe-all reference, failing on any divergence.
func FuzzGACEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 2, 0x1a, 0, 1, 4, 0x23, 0x41, 9, 0, 1, 4, 0x23, 0x41, 9, 10, 0, 0, 0, 0, 3})
	all := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for s := byte(0); s < 4; s++ {
		f.Add(gacStream(int64(s)+1, [4]byte{s, 7, 3, 0x1a}, 60, all))
		f.Add(gacStream(int64(s)+5, [4]byte{s | 0x3c, 19, 5, 0x57}, 60, all))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // each op sweeps two fleets: keep execs cheap
		}
		runGACEquivalence(t, data)
	})
}

// TestGACEquivalenceStreams runs the differential harness on seeded
// streams in every plain `go test`: all four strategies against each
// way a bound can be invalidated or can fail to exist.
func TestGACEquivalenceStreams(t *testing.T) {
	submit := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11} // submits, negotiation, completions
	variants := []struct {
		name   string
		flags  byte // header byte 0 above the strategy bits
		shapes byte // header byte 3: ways and octave diversity
		kinds  []byte
	}{
		{"plain", 0, 0x1a, submit},
		{"autodowngrade", 0x04, 0x1a, submit},
		{"autodowngrade-nofloor", 0x08, 0x1a, submit},
		// No completions in the next three: reservations expire as the
		// clock advances, so the op under test is the only thing that can
		// move a start earlier.
		{"headroom", 0x20, 0x0f, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 13}},
		{"capacity", 0x40, 0x1a, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 12}},
		{"way-shedding", 0, 0x1a, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 14, 14, 14}},
		{"direct", 0, 0x1a, append([]byte{9, 10, 11}, submit...)},
		{"backwards", 0, 0x1a, append([]byte{15}, submit...)},
		{"mixed-capacities", 0x10, 0x1a, submit},
		{"many-shapes", 0x40, 0xff, submit},
		{"everything", 0x7c, 0x1b, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
	}
	for _, v := range variants {
		for s, name := range []string{"bestfit", "worstfit", "oversub", "locality"} {
			t.Run(v.name+"/"+name, func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					// Odd seeds saturate a small fleet (slow clock); even
					// ones run a 20-node fleet, past the locality window.
					h := [4]byte{byte(s) | v.flags, 5, 2, v.shapes}
					if seed%2 == 0 {
						h[1], h[2] = 19, 1
					}
					p := runGACEquivalence(t, gacStream(seed, h, 500, v.kinds))
					st := p.fast.Stats()
					if v.name == "many-shapes" && st.Shapes != maxShapes {
						t.Errorf("seed %d: %d shapes hold a row, want the cap %d", seed, st.Shapes, maxShapes)
					}
					if v.name == "backwards" && st.Resets == 0 {
						t.Errorf("seed %d: backwards arrivals never reset the table", seed)
					}
					if got := st.Probes + st.PrunedInfeasible + st.PrunedBeaten; got != st.Charged {
						t.Errorf("seed %d: probes %d + pruned %d+%d != charged %d", seed,
							st.Probes, st.PrunedInfeasible, st.PrunedBeaten, st.Charged)
					}
				}
			})
		}
	}
}

// TestGACBoundsPrune pins the point of the table: on a saturated fleet a
// reserving Submit asks a small fraction of the nodes it charges, and the
// counters say why.
func TestGACBoundsPrune(t *testing.T) {
	const nodes = 64
	var lacs []*LAC
	for i := 0; i < nodes; i++ {
		lacs = append(lacs, NewLAC(nodeCap()))
	}
	g := NewGAC(lacs...)
	rng := rand.New(rand.NewSource(1))
	var live []gacJob
	clock := int64(0)
	submit := func(id int) {
		tw := int64(500 + rng.Intn(1000))
		rum := RUM{Resources: ResourceVector{Cores: 1, CacheWays: 2 + rng.Intn(6)}, MaxWallClock: tw, Deadline: clock + tw*2}
		if n, d := g.Submit(Request{JobID: id, Target: rum, Mode: Strict(), Arrival: clock}); d.Accepted {
			live = append(live, gacJob{id: id, node: n})
		}
	}
	for id := 1; id <= 4000; id++ {
		clock += 3 // ~4x the fleet's capacity: most submissions bounce
		submit(id)
		if id%2 == 0 && len(live) > 0 {
			k := rng.Intn(len(live))
			lacs[live[k].node].Complete(live[k].id, Strict(), clock)
			live = append(live[:k], live[k+1:]...)
		}
		if id == 2000 {
			g.stats = GACStats{} // count the warm half only
		}
	}
	st := g.Stats()
	if st.Charged != 2000*nodes {
		t.Fatalf("charged %d admission tests, want one per node per submit = %d", st.Charged, 2000*nodes)
	}
	if asked := st.Probes + st.LearningPeeks; asked*4 > st.Charged {
		t.Errorf("asked %d of %d charged nodes (%.0f%%), want under 25%%: %+v",
			asked, st.Charged, 100*float64(asked)/float64(st.Charged), st)
	}
	if st.PrunedInfeasible == 0 || st.PrunedBeaten == 0 || st.LearningPeeks == 0 || st.Shapes == 0 {
		t.Errorf("a saturated run should exercise every counter: %+v", st)
	}
}

// TestGACSubmitZeroAlloc pins the admit path: once a shape has its row,
// the scan, the placement and its counters allocate nothing beyond what
// LAC.Admit does — a plan dropped before its commit included.
func TestGACSubmitZeroAlloc(t *testing.T) {
	g := NewGAC(NewLAC(nodeCap()), NewLAC(nodeCap()), NewLAC(nodeCap()))
	rum := &RUM{Resources: PresetMedium(), MaxWallClock: 1000, Deadline: 1500}
	req := Request{JobID: 1, Target: rum, Mode: Strict(), Arrival: 0}
	for ; req.JobID <= 6; req.JobID++ {
		g.Submit(req) // fills the fleet: 2 per node
	}
	allocs := testing.AllocsPerRun(100, func() {
		g.Plan(req) // dropped, as when the daemon's log refuses the record
		if d := g.Commit(g.Plan(req)); d.Accepted {
			t.Fatal("a full fleet accepted")
		}
		if _, d := g.Submit(req); d.Accepted {
			t.Fatal("a full fleet accepted")
		}
		g.Stats()
	})
	if allocs != 0 {
		t.Errorf("rejecting Plan, Plan+Commit and Submit allocated %.1f times per call, want 0", allocs)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cmpqos"
	"cmpqos/internal/cache"
	"cmpqos/internal/qos"
	"cmpqos/internal/server"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// The traced run prices every layer from outside: it replays the
// workload's own tape at successively deeper entry points (loopback
// round trip, in-memory handler, bare GAC, one LAC, the timeline, the
// WAL) and records a span around every call. A level's self time is its
// p50 minus the p50 of the levels beneath it; the ledger closes when the
// self times add up to the mean op time.

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int    `json:"op"`     // spans of one op share this
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)} }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// timed records one span around fn.
func (t *tracer) timed(name string, parent, op int, fn func()) time.Duration {
	id := t.begin(name, parent, op)
	fn()
	return t.end(id)
}

// durations returns the length of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var d []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	return d
}

// p50 is the median length of the spans called name, 0 when there are
// none.
func (t *tracer) p50(name string) time.Duration {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	return quantile(d, 0.5)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// depth sizes the traced run's probes. Probes on the workload's own
// path run deep; the others run shallow, enough for a median. Every
// depth scales with --seconds.
type depth struct {
	admitNodes  int
	admitOps    int // ledger ops replayed
	refOps      int // ops of the ledger's untraced reference phase
	simPasses   int
	clusterRuns int
	openStep    time.Duration // length of one open-loop step
}

func depthFor(workload string, sz sizes) depth {
	scale := func(perSecond float64, least int) int { return max(int(perSecond*sz.seconds), least) }
	d := depth{
		admitNodes:  steadyNodes,
		admitOps:    scale(100, 9),
		refOps:      slices,
		simPasses:   3,
		clusterRuns: 3,
		openStep:    time.Duration(sz.seconds / 10 * float64(time.Second)),
	}
	switch workload {
	case "admit-steady":
		d.admitOps, d.refOps = scale(1000, 9), opsFor(steadyOpsPerSec, sz.seconds/4)
	case "admit-fleet":
		d.admitNodes, d.admitOps, d.refOps = sz.fleetNodes, scale(300, 9), opsFor(fleetOpsPerSec, sz.seconds/4)
	case "sim-node":
		d.simPasses = scale(1.5, 3)
	case "sim-fleet":
		d.clusterRuns = scale(0.6, 3)
	}
	return d
}

// memWriter is the in-memory http.ResponseWriter of the handler-level
// replay.
type memWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// direct performs one op against the daemon's handler with no TCP: the
// same encode and decode as do, ServeHTTP in between.
func (c *client) direct(h http.Handler, o op) (answer, error) {
	path := c.encode(o)
	req, err := http.NewRequest("POST", path, bytes.NewReader(c.body))
	if err != nil {
		return answer{}, err
	}
	w := memWriter{hdr: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(&w, req)
	a := answer{status: w.status}
	if w.status == http.StatusOK {
		err = json.Unmarshal(w.buf.Bytes(), &a)
	}
	return a, err
}

// walRecord is the record the daemon logs for o and its decision.
func walRecord(seq int64, o op, node int, dec qos.Decision) qos.WALRecord {
	if o.kind == opCancel {
		return qos.WALRecord{Seq: seq, Op: qos.WALCancel, JobID: o.jobID, Now: o.at}
	}
	mode := o.qosMode()
	return qos.WALRecord{Seq: seq, Op: qos.WALAdmit, JobID: o.jobID, Mode: mode, FinalMode: mode,
		RUM: o.rum(), Arrival: o.at, Node: node, Dec: dec}
}

// traceAdmit runs the admit ledger at d's node scale and returns its
// metrics, with the outcome of its untraced reference phase.
func traceAdmit(tr *tracer, d depth, seed int64, dir string) (map[string]float64, outcome, error) {
	r := &admitRun{spec: admitSpec{"ledger", d.admitNodes, d.refOps}}
	_, setups, err := r.setUpRepeated(seed, dir)
	if err != nil {
		return nil, outcome{}, err
	}
	warmSub, warmAcc := r.nSub, r.nAcc

	// Untraced reference: the same loop the end-to-end run measures.
	r.dig = newDigest()
	ph := measure(d.refOps, func(int) time.Duration { _, lat := r.step(); return lat })
	out := outcome{phase: ph}
	out.e2e, out.tail = ph.endToEnd(setups, liveHeapMB())
	out.tail["accept_frac"] = float64(r.nAcc-warmAcc) / float64(r.nSub-warmSub)
	out.tail["decision_digest"] = r.dig.value()

	// The mirrors start from the daemon's current state.
	snap, err := r.c.get("/v1/snapshot")
	if err != nil {
		return nil, out, err
	}
	gac, lacs, _, err := restoreGAC(snap)
	if err != nil {
		return nil, out, err
	}
	last := filepath.Join(dir, strconv.Itoa(setupRepeats-1)) // the live daemon's set-up directory
	walPath := filepath.Join(dir, "mirror.wal")
	wal, err := qos.CreateWAL(walPath, false)
	if err != nil {
		return nil, out, err
	}
	handler := r.d.srv.Handler()

	// Two ops in three go over TCP and the third straight into the
	// handler: 3 does not divide the daemon's snapshot period, so snapshot
	// stalls land on both levels in proportion.
	var opTotal time.Duration
	var nHTTP int
	class := map[string][]time.Duration{}
	for i := 0; i < d.admitOps; i++ {
		o := r.tape.next()
		root := tr.begin("admit.op", -1, i)
		var a answer
		var err error
		var level int
		tr.timed("load.transport", root, i, func() { _, err = r.c.roundTrip("GET", noopPath, nil) })
		if err != nil {
			r.fail("no-op round trip: %v", err)
		}
		if i%3 != 2 {
			level = tr.begin("server.http", root, i)
			a, _, err = r.c.do(o)
			opTotal += tr.end(level)
			nHTTP++
		} else {
			level = tr.begin("server.handler", root, i)
			a, err = r.c.direct(handler, o)
			lat := tr.end(level)
			name := "server.cancel_us"
			if o.kind == opSubmit {
				name = "server.reject_us"
				if a.Accepted {
					name = "server.submit_us"
				}
			}
			class[name] = append(class[name], lat)
		}
		r.observe(o, a, err)
		var node int
		var dec qos.Decision
		tr.timed("qos.gac.submit", level, i, func() { node, dec = mirror(gac, lacs, o) })
		if o.kind == opSubmit && (dec.Accepted != a.Accepted || dec.Accepted && (node != a.Node || dec.Start != a.Start)) {
			r.fail("ledger op %d: daemon answered %+v, bare GAC node %d %+v", i, a, node, dec)
		}
		rec := walRecord(int64(i+1), o, node, dec)
		tr.timed("qos.wal.append", level, i, func() { err = wal.Append(rec) })
		if err != nil {
			r.fail("mirror WAL append: %v", err)
		}
		tr.end(root)
	}
	if err := wal.Close(); err != nil {
		return nil, out, err
	}
	var nRec int
	readWAL := tr.timed("qos.wal.read", -1, 0, func() {
		recs, _, err := qos.ReadWAL(walPath)
		if err != nil || len(recs) != d.admitOps {
			r.fail("mirror WAL read back %d of %d records: %v", len(recs), d.admitOps, err)
		}
		nRec = max(len(recs), 1)
	})

	// The same append with the sandbox disk's fsync on: reported, never
	// gated.
	syncWAL, err := qos.CreateWAL(filepath.Join(dir, "sync.wal"), true)
	if err != nil {
		return nil, out, err
	}
	for i := 0; i < 30; i++ {
		tr.timed("qos.wal.append_sync", -1, i, func() { err = syncWAL.Append(walRecord(int64(i+1), op{kind: opCancel}, 0, qos.Decision{})) })
		if err != nil {
			r.fail("synced WAL append: %v", err)
		}
	}
	syncWAL.Close()

	for i := 0; i < 5; i++ {
		tr.timed("server.snapshot_persist", -1, i, func() { _, err = r.c.get("/v1/snapshot?persist=1") })
		if err != nil {
			r.fail("persisting a snapshot: %v", err)
		}
	}

	open := openLoop(r, d.openStep)

	// Recovery, three times from the same directory: a crashed daemon
	// leaves its state as it was, so every New replays the same tail.
	for i := 0; i < 20; i++ {
		r.step() // leave a WAL tail behind the persisted snapshot
	}
	r.c.closeIdle()
	r.d.crash()
	var srv *server.Server
	for i := 0; i < 3; i++ {
		tr.timed("server.recover", -1, i, func() { srv, err = openServer(filepath.Join(last, "b"), d.admitNodes) })
		if err != nil {
			return nil, out, err
		}
	}
	if err := srv.Close(); err != nil {
		r.fail("draining the recovered daemon: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, out, err
	}

	m := map[string]float64{
		"load.transport_us":          us(tr.p50("load.transport")),
		"server.http_us":             us(tr.p50("server.http")),
		"server.handler_us":          us(tr.p50("server.handler")),
		"qos.gac.submit_us":          us(tr.p50("qos.gac.submit")),
		"qos.wal.append_ns":          float64(tr.p50("qos.wal.append")),
		"qos.wal.append_sync_us":     us(tr.p50("qos.wal.append_sync")),
		"qos.wal.read_ns_per_rec":    float64(readWAL) / float64(nRec),
		"server.recover_ms":          us(tr.p50("server.recover")) / 1e3,
		"server.snapshot_persist_ms": us(tr.p50("server.snapshot_persist")) / 1e3,
	}
	for name, v := range open {
		m[name] = v
	}
	for _, name := range []string{"server.submit_us", "server.reject_us", "server.cancel_us"} {
		if lat := class[name]; len(lat) > 0 {
			m[name] = us(quantile(lat, 0.5))
		} else {
			m[name] = 0 // the replay met no op of this class
		}
	}
	m["server.snapshot_us_per_op"] = m["server.snapshot_persist_ms"] * 1e3 / 1024 // the daemon's default SnapshotEvery
	// The ledger: self time of each level, and what the sum leaves over.
	m["admit.self.transport_us"] = m["server.http_us"] - m["server.handler_us"]
	m["admit.self.decide_us"] = m["qos.gac.submit_us"]
	m["admit.self.wal_us"] = m["qos.wal.append_ns"] / 1e3
	m["admit.self.handler_us"] = m["server.handler_us"] - m["admit.self.decide_us"] - m["admit.self.wal_us"]
	m["admit.self.snapshot_us"] = m["server.snapshot_us_per_op"]
	sum := m["admit.self.transport_us"] + m["admit.self.handler_us"] + m["admit.self.decide_us"] + m["admit.self.wal_us"] + m["admit.self.snapshot_us"]
	m["admit.unattributed_frac"] = 1 - sum/(us(opTotal)/float64(nHTTP))
	m["trace.overhead_frac"] = m["server.http_us"]/out.tail["op_p50_us"] - 1

	out.attempted, out.failed, out.notes = r.nOps, r.failed, r.notes
	return m, out, nil
}

// openLoop sends the tape on a schedule instead of after each answer:
// two steps at fixed rates, each op timed from the instant it was due,
// so a stall charges every request queued behind it. One client still:
// a late answer delays the next send, and how late sends ran is
// reported with the latencies.
func openLoop(r *admitRun, stepLen time.Duration) map[string]float64 {
	m := map[string]float64{}
	var late []time.Duration
	for _, rate := range []int{2000, 5000} {
		n := max(int(stepLen.Seconds()*float64(rate)), 1)
		lat := make([]time.Duration, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
			// Sleep most of the wait and yield through the rest: a plain
			// spin would keep this P busy and starve the network poller.
			for d := time.Until(due); d > 0; d = time.Until(due) {
				if d > 200*time.Microsecond {
					time.Sleep(d - 100*time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
			late = append(late, time.Since(due))
			r.step()
			lat = append(lat, time.Since(due))
			if time.Since(start) > 2*stepLen {
				break // saturated: the backlog only grows from here
			}
		}
		m[fmt.Sprintf("admit.open_r%d.p99_us", rate)] = us(quantile(lat, 0.99))
	}
	m["admit.open.late_p99_us"] = us(quantile(late, 0.99))
	return m
}

// perCall times batches of per calls of fn and returns the median
// nanoseconds per call: single calls at this scale are shorter than the
// clock read around them.
func perCall(batches, per int, fn func(i int)) float64 {
	d := make([]time.Duration, batches)
	for b := range d {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		d[b] = time.Since(t0)
	}
	return float64(quantile(d, 0.5)) / float64(per)
}

// packedTimeline holds n live medium reservations, two per window back
// to back: a third medium request is blocked across every window.
func packedTimeline(n int) *qos.Timeline {
	tl := qos.NewTimeline(qos.ResourceVector{Cores: 4, CacheWays: nodeWays})
	for i := 0; i < n; i++ {
		tl.Reserve(i, qos.PresetMedium(), int64(i/2)*1000, 1000)
	}
	return tl
}

// traceQoS prices the admission layers beneath the GAC on their own:
// one LAC under the workload's single-node tape, and the timeline at 1k
// and 100k live reservations.
func traceQoS(seed int64) map[string]float64 {
	m := map[string]float64{}

	lac := qos.NewLAC(qos.ResourceVector{Cores: 4, CacheWays: nodeWays})
	tp := newTape(seed, 1)
	var admit, negotiate []time.Duration
	for i := 0; i < 20_000; i++ {
		o := tp.next()
		if o.kind == opCancel {
			lac.Complete(o.jobID, o.qosMode(), o.at)
			continue
		}
		req := o.request()
		t0 := time.Now()
		dec := lac.Admit(req)
		admit = append(admit, time.Since(t0))
		if dec.Accepted {
			tp.granted(o, 0, dec.Start)
		} else {
			t0 := time.Now()
			lac.Negotiate(req)
			negotiate = append(negotiate, time.Since(t0))
		}
	}
	m["qos.lac.admit_ns"] = float64(quantile(admit, 0.5))
	m["qos.lac.negotiate_us"] = us(quantile(negotiate, 0.5))

	med := qos.PresetMedium()
	tl := packedTimeline(1000)
	m["qos.timeline.earliestfit_ns"] = perCall(50, 200, func(int) { tl.EarliestFit(med, 0, 1000, 0) })
	for _, n := range []int{1000, 100_000} {
		tl := packedTimeline(n)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i + 1 // Reserve hands out ids from 1 in order
		}
		name := "qos.timeline.churn_ns"
		if n > 1000 {
			name = "qos.timeline.churn_100k_ns"
		}
		m[name] = perCall(50, 200, func(i int) {
			slot := i % n
			tl.Release(ids[slot])
			ids[slot] = tl.Reserve(slot, med, int64(slot/2)*1000, 1000)
		})
	}
	return m
}

// traceSim prices the simulator's layers: tape building, New and Run per
// tape class over the sim-node tape, and the cluster runner.
func traceSim(tr *tracer, d depth, fleetNodes int, seed int64) (map[string]float64, error) {
	m := map[string]float64{}

	var tapes []time.Duration
	for rep := 0; rep < 30; rep++ {
		t0 := time.Now()
		s := seed*1000 + int64(rep) // a fresh seed: the tapes are memoized per seed
		arr := workload.NewArrivals(s, workload.DefaultProbesPerTw, twMean)
		dl := workload.NewDeadlineMix(s)
		for i := 0; i < 1000; i++ {
			arr.Next()
			dl.Next()
		}
		workload.Single("bzip2")
		workload.Mix1()
		workload.Mix2()
		tapes = append(tapes, time.Since(t0))
	}
	m["workload.tape_us"] = us(quantile(tapes, 0.5))

	type classSum struct {
		run              time.Duration
		stepped, skipped int64
	}
	sums := map[string]*classSum{}
	var instr float64
	var total time.Duration
	for pass := 0; pass < d.simPasses; pass++ {
		root := tr.begin("sim.pass", -1, pass)
		for _, run := range nodeTape(seed, pass%tapeVariants) {
			var r *sim.Runner
			var rep *sim.Report
			var err error
			tr.timed("sim.new", root, pass, func() { r, err = sim.New(run.cfg) })
			if err != nil {
				return nil, err
			}
			took := tr.timed("sim.run_"+run.class, root, pass, func() { rep, err = r.Run() })
			if err != nil {
				return nil, err
			}
			s := sums[run.class]
			if s == nil {
				s = &classSum{}
				sums[run.class] = s
			}
			s.run += took
			s.stepped += rep.EpochsStepped
			s.skipped += rep.EpochsSkipped
			instr += float64(rep.AcceptedJobs) * float64(run.cfg.JobInstr)
			total += took
		}
		tr.end(root)
	}
	m["sim.new_us"] = us(tr.p50("sim.new"))
	for _, class := range []string{"paper", "dense", "pid", "faults"} {
		m["sim.run_"+class+"_us"] = us(tr.p50("sim.run_" + class))
	}
	for _, class := range []string{"paper", "dense"} {
		s := sums[class]
		m["sim."+class+".skipped_frac"] = float64(s.skipped) / float64(s.stepped+s.skipped)
	}
	m["sim.dense.ns_per_stepped_epoch"] = float64(sums["dense"].run) / float64(sums["dense"].stepped)
	m["sim.minstr_per_host_s"] = instr / 1e6 / total.Seconds()

	cfg := fleetConfig(seed, fleetNodes)
	var rep *sim.ClusterReport
	for i := 0; i < d.clusterRuns; i++ {
		root := tr.begin("sim.cluster", -1, i)
		var cr *sim.ClusterRunner
		var err error
		tr.timed("sim.cluster.new", root, i, func() { cr, err = sim.NewCluster(cfg) })
		if err != nil {
			return nil, err
		}
		tr.timed("sim.cluster.run", root, i, func() { rep, err = cr.Run() })
		if err != nil {
			return nil, err
		}
		tr.end(root)
	}
	run := tr.p50("sim.cluster.run")
	m["sim.cluster.new_ms"] = us(tr.p50("sim.cluster.new")) / 1e3
	m["sim.cluster.run_ms"] = us(run) / 1e3
	m["sim.cluster.us_per_arrival"] = us(run) / float64(rep.Accepted+rep.RejectedProbes)
	m["sim.cluster.rejected_probes"] = float64(rep.RejectedProbes)
	m["sim.cluster.skipped_frac"] = float64(rep.EpochsSkipped) / float64(rep.EpochsStepped+rep.EpochsSkipped)
	return m, nil
}

// traceCache prices the layers no end-to-end workload covers: the trace
// engine and the cache model beneath it.
func traceCache(tr *tracer, seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	cfg := sim.TraceConfig(sim.Hybrid2, workload.Single("bzip2"))
	cfg.Seed = seed
	for i := 0; i < 3; i++ {
		r, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		tr.timed("sim.run_trace", -1, i, func() { _, err = r.Run() })
		if err != nil {
			return nil, err
		}
	}
	m["sim.run_trace_ms"] = us(tr.p50("sim.run_trace")) / 1e3

	l2 := cache.PaperL2()
	stream := workload.MustByName("bzip2").NewStream(seed, 0)
	part := cache.NewPartitioned(l2)
	part.SetTarget(0, 7)
	part.SetClass(0, cache.ClassReserved)
	m["cache.access_ns"] = perCall(50, 4000, func(int) { part.Access(0, stream.Next()) })

	main := cache.NewPartitioned(l2)
	main.SetTarget(0, 3)
	main.SetClass(0, cache.ClassReserved)
	shadow := cache.NewShadowTags(l2, 8)
	shadow.SetTarget(0, 7)
	shadow.SetClass(0, cache.ClassReserved)
	both := perCall(50, 4000, func(int) {
		a := stream.Next()
		shadow.Observe(0, a, main.Access(0, a))
	})
	m["cache.shadow_observe_ns"] = both - m["cache.access_ns"]

	curveCfg := cache.Config{SizeBytes: 2 << 20, Ways: 16, BlockSize: 64, Owners: 1, HitCycles: 10}
	for i := 0; i < 5; i++ {
		tr.timed("cache.misscurve", -1, i, func() {
			cache.SinglePassMissCurve(curveCfg, workload.MustByName("bzip2").NewStream(seed, 0), 50_000, 50_000)
		})
	}
	m["cache.misscurve_ms"] = us(tr.p50("cache.misscurve")) / 1e3
	return m, nil
}

// coldSweep regenerates every paper table and figure once, the way
// `qossim -exp all` does in a fresh process; the two ablations are
// minutes long and left out.
func coldSweep(tr *tracer) (float64, error) {
	var err error
	took := tr.timed("experiments.cold_sweep", -1, 0, func() {
		for _, e := range cmpqos.Experiments() {
			if strings.HasPrefix(e.Name, "ablation-") {
				continue
			}
			if err = cmpqos.RunExperiment(e.Name, cmpqos.ExperimentOptions{}, io.Discard); err != nil {
				err = fmt.Errorf("experiment %s: %w", e.Name, err)
				return
			}
		}
	})
	return us(took) / 1e3, err
}

// calibrate runs a fixed integer kernel and returns its median time:
// when two runs disagree, this says whether the host did.
func calibrate() float64 {
	d := make([]time.Duration, 9)
	for i := range d {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d[i] = time.Since(t0)
		calibSink = x
	}
	return us(quantile(d, 0.5)) / 1e3
}

var calibSink uint64

// procField reads one numeric field out of a /proc file: the value after
// key on the line that starts with it, at position col.
func procField(path, key string, col int) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > col && f[0] == key {
			v, _ := strconv.ParseFloat(f[col], 64)
			return v
		}
	}
	return 0
}

// cpuJiffies returns the host's total and stolen jiffies so far.
func cpuJiffies() (total, steal float64) {
	for col := 1; col <= 8; col++ {
		total += procField("/proc/stat", "cpu", col)
	}
	return total, procField("/proc/stat", "cpu", 8)
}

// runTraced is the traced run of one workload: every per-layer metric,
// the span file, and the workload's own ungated tail.
func runTraced(name string, seed int64, sz sizes, out string) (map[string]float64, outcome, error) {
	tr := newTracer()
	total0, steal0 := cpuJiffies()
	// First thing in the process, before anything warms a cache.
	sweep, err := coldSweep(tr)
	if err != nil {
		return nil, outcome{}, err
	}
	m := map[string]float64{"experiments.cold_sweep_ms": sweep, "host.calib_ms": calibrate()}

	d := depthFor(name, sz)
	admit, own, err := traceAdmit(tr, d, seed, stateDir(out, name))
	if err != nil {
		return nil, outcome{}, err
	}
	// A sim workload's own op is not the ledger's: run its reference
	// phase, and keep the ledger's failures.
	simSpan := map[string]string{"sim-node": "sim.pass", "sim-fleet": "sim.cluster"}[name]
	if simSpan != "" {
		ledger, quarter := own, sz
		quarter.seconds /= 4
		if own, err = runWorkload(name, seed, quarter, out); err != nil {
			return nil, outcome{}, err
		}
		own.attempted += ledger.attempted
		own.failed += ledger.failed
		own.notes = append(own.notes, ledger.notes...)
	}
	simM, err := traceSim(tr, d, sz.simFleetNodes, seed)
	if err != nil {
		return nil, outcome{}, err
	}
	cacheM, err := traceCache(tr, seed)
	if err != nil {
		return nil, outcome{}, err
	}
	for _, part := range []map[string]float64{admit, traceQoS(seed), simM, cacheM, own.tail} {
		for k, v := range part {
			m[k] = v
		}
	}
	if simSpan != "" {
		m["trace.overhead_frac"] = us(tr.p50(simSpan))/own.tail["op_p50_us"] - 1
	}
	m["failed_frac"] = float64(own.failed) / float64(own.attempted)
	m["host.peak_rss_mb"] = procField("/proc/self/status", "VmHWM:", 1) / 1024
	total1, steal1 := cpuJiffies()
	m["host.steal_frac"] = (steal1 - steal0) / (total1 - total0)
	return m, own, tr.write(filepath.Join(out, "trace-"+name+".json"))
}

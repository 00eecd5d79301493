package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"cmpqos/internal/qos"
	"cmpqos/internal/server"
)

// admitSpec sizes one admit workload.
type admitSpec struct {
	name  string
	nodes int
	ops   int // measured ops
}

// mirrorProbes bounds the differential check: the first
// mirrorProbes/nodes measured ops are replayed through a bare qos.GAC
// (each replayed submit probes every node, so the bound is in probes).
const mirrorProbes = 20_000_000

// warmTw is how much virtual time (in mean wall-clocks) the warm-up tape
// covers at least, so the fleet's live reservations reach their
// stationary population before the first measured op.
const warmTw = 1.3

// daemon is one in-process qosd on a real loopback listener.
type daemon struct {
	srv *server.Server
	hs  *http.Server
	url string
	err chan error
}

// noopPath answers 200 with an empty body from the same listener, the
// transport floor of the ledger.
const noopPath = "/bench/noop"

// openServer opens (creating or recovering) the daemon state in dir.
func openServer(dir string, nodes int) (*server.Server, error) {
	// NoSync: the sandbox's fsync latency swings 2x between back-to-back
	// runs; with it on, every number would measure the device.
	return server.New(server.Config{Dir: dir, Nodes: nodes, NoSync: true})
}

func startDaemon(dir string, nodes int) (*daemon, error) {
	srv, err := openServer(dir, nodes)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc(noopPath, func(http.ResponseWriter, *http.Request) {})
	mux.Handle("/", srv.Handler())
	d := &daemon{srv: srv, hs: &http.Server{Handler: mux}, url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	go func() { d.err <- d.hs.Serve(ln) }()
	return d, nil
}

// crash stops serving without draining: no final snapshot, the WAL is
// left wherever the last append put it.
func (d *daemon) crash() {
	d.hs.Close()
	<-d.err
}

// close stops serving and drains the daemon.
func (d *daemon) close() error {
	d.crash()
	return d.srv.Close()
}

// answer is what the client reads back from one op.
type answer struct {
	status   int
	Accepted bool   `json:"accepted"`
	Node     int    `json:"node"`
	Mode     string `json:"mode"`
	Start    int64  `json:"start"`
}

// client is the single closed-loop client: one keep-alive connection,
// one request in flight.
type client struct {
	hc   *http.Client
	base string
	body []byte
	resp bytes.Buffer
}

func newClient(base string) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base: base}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// encode renders o as the daemon's JSON request body into c.body and
// returns the path it goes to.
func (c *client) encode(o op) string {
	b := c.body[:0]
	b = append(b, `{"job_id":`...)
	b = strconv.AppendInt(b, int64(o.jobID), 10)
	if o.kind == opCancel {
		b = append(b, `,"now":`...)
		b = strconv.AppendInt(b, o.at, 10)
		c.body = append(b, '}')
		return "/v1/cancel"
	}
	b = append(b, `,"mode":"`...)
	b = append(b, modeNames[o.mode]...)
	b = append(b, `","cores":1,"ways":`...)
	b = strconv.AppendInt(b, int64(o.ways), 10)
	if o.mode == modeElastic {
		b = append(b, `,"slack":`...)
		b = strconv.AppendFloat(b, elasticSlack, 'g', -1, 64)
	}
	b = append(b, `,"tw":`...)
	b = strconv.AppendInt(b, o.tw, 10)
	b = append(b, `,"deadline":`...)
	b = strconv.AppendInt(b, o.deadline, 10)
	b = append(b, `,"arrival":`...)
	b = strconv.AppendInt(b, o.at, 10)
	c.body = append(b, '}')
	return "/v1/submit"
}

// roundTrip sends body to path over TCP and leaves the response in
// c.resp.
func (c *client) roundTrip(method, path string, body []byte) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// do performs one op over TCP and returns the daemon's answer with the
// client-observed latency: encode, round trip, decode.
func (c *client) do(o op) (answer, time.Duration, error) {
	t0 := time.Now()
	path := c.encode(o)
	status, err := c.roundTrip("POST", path, c.body)
	a := answer{status: status}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(c.resp.Bytes(), &a)
	}
	return a, time.Since(t0), err
}

// get fetches path and returns a copy of the body.
func (c *client) get(path string) ([]byte, error) {
	status, err := c.roundTrip("GET", path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return append([]byte(nil), c.resp.Bytes()...), nil
}

// digest folds every submit's (status, accepted, node, mode, start)
// into one number; two runs that decide identically agree on it.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(status int, accepted bool, node int, mode string, start int64) {
	var b [25]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(status))
	if accepted {
		b[8] = 1
	}
	binary.LittleEndian.PutUint64(b[9:], uint64(int64(node)))
	binary.LittleEndian.PutUint64(b[17:], uint64(start))
	d.h.Write(b[:])
	io.WriteString(d.h, mode)
}

// value is the digest as a float64-exact integer (48 bits).
func (d digest) value() float64 { return float64(d.h.Sum64() >> 16) }

// admitRun is the state of one admit workload run: the tape, the live
// daemon, and the decision bookkeeping the checks need.
type admitRun struct {
	spec   admitSpec
	tape   *tape
	d      *daemon
	c      *client
	dig    digest
	live   map[int]bool // acked, uncancelled job ids
	nOps   int
	nSub   int
	nAcc   int
	failed int
	notes  []string // what failed, for the operator
}

func (r *admitRun) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// observe books one answered op: failure accounting, the digest, the
// live set, and the cancel the tape owes an accepted grant.
func (r *admitRun) observe(o op, a answer, err error) {
	r.nOps++
	if err != nil || a.status != http.StatusOK {
		r.fail("op %d (job %d): status %d err %v", r.nOps, o.jobID, a.status, err)
		return
	}
	if o.kind == opCancel {
		delete(r.live, o.jobID)
		return
	}
	r.nSub++
	r.dig.add(a.status, a.Accepted, a.Node, a.Mode, a.Start)
	if a.Accepted {
		r.nAcc++
		r.live[o.jobID] = true
		r.tape.granted(o, a.Node, a.Start)
	}
}

// step runs the next tape op over TCP.
func (r *admitRun) step() (op, time.Duration) {
	o := r.tape.next()
	a, lat, err := r.c.do(o)
	r.observe(o, a, err)
	return o, lat
}

// setUp generates the tape, boots a fresh daemon, warms it to a
// stationary live set, crashes it mid-WAL, recovers a second daemon from
// a copy of the state directory and checks the recovered state is
// byte-identical. The run continues on the recovered daemon. The
// returned bytes are the pre-crash snapshot.
func (r *admitRun) setUp(seed int64, dir string) ([]byte, error) {
	r.tape = newTape(seed, r.spec.nodes)
	r.dig = newDigest()
	r.live = map[int]bool{}
	r.nOps, r.nSub, r.nAcc = 0, 0, 0
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	first := filepath.Join(dir, "a")
	d, err := startDaemon(first, r.spec.nodes)
	if err != nil {
		return nil, err
	}
	r.d, r.c = d, newClient(d.url)
	// Warm until the fleet has seen warmTw wall-clocks of arrivals and a
	// tenth of the measured op count, then on to the middle of a
	// snapshot cycle so the crash leaves a WAL tail to replay.
	for r.nOps < r.spec.ops/10 || r.tape.clock < warmTw*float64(twMean) || r.nOps%1024 != 512 {
		r.step()
	}
	pre, err := r.c.get("/v1/snapshot")
	if err != nil {
		return nil, err
	}
	r.c.closeIdle()
	d.crash()

	second := filepath.Join(dir, "b")
	if err := os.MkdirAll(second, 0o755); err != nil {
		return nil, err
	}
	files, err := os.ReadDir(first) // snapshot.json once one was taken, and wal.log
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(first, f.Name()))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(second, f.Name()), data, 0o644); err != nil {
			return nil, err
		}
	}
	if r.d, err = startDaemon(second, r.spec.nodes); err != nil {
		return nil, err
	}
	r.c = newClient(r.d.url)
	post, err := r.c.get("/v1/snapshot")
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(pre, post) {
		r.fail("recovered snapshot differs from the pre-crash snapshot (%d vs %d bytes)", len(post), len(pre))
	}
	return pre, nil
}

// envelope is the part of the daemon's snapshot the checks read.
type envelope struct {
	Nodes []json.RawMessage   `json:"nodes"`
	Jobs  map[string]struct{} `json:"jobs"`
}

// restoreGAC rebuilds a bare GAC from a daemon snapshot. RestoreLAC
// re-reserves every reservation, so it also proves no node in the
// snapshot is oversubscribed.
func restoreGAC(snap []byte) (*qos.GAC, []*qos.LAC, envelope, error) {
	var env envelope
	if err := json.Unmarshal(snap, &env); err != nil {
		return nil, nil, env, err
	}
	lacs := make([]*qos.LAC, len(env.Nodes))
	for i, raw := range env.Nodes {
		lac, err := qos.RestoreLAC(bytes.NewReader(raw))
		if err != nil {
			return nil, nil, env, fmt.Errorf("node %d: %w", i, err)
		}
		lacs[i] = lac
	}
	return qos.NewGAC(lacs...), lacs, env, nil
}

// mirror applies o to a bare GAC exactly as the daemon's decide path
// does and returns the decision.
func mirror(g *qos.GAC, lacs []*qos.LAC, o op) (int, qos.Decision) {
	if o.kind == opCancel {
		lacs[o.node].Complete(o.jobID, o.qosMode(), o.at)
		return o.node, qos.Decision{}
	}
	return g.Submit(o.request())
}

// checkMirror replays ops, recorded from the measured phase, through a
// bare GAC restored from the snapshot the phase started on, and compares
// decision digests.
func (r *admitRun) checkMirror(start []byte, ops []op, want float64) {
	g, lacs, _, err := restoreGAC(start)
	if err != nil {
		r.fail("restoring the pre-crash snapshot: %v", err)
		return
	}
	dig := newDigest()
	for _, o := range ops {
		node, dec := mirror(g, lacs, o)
		if o.kind == opSubmit {
			dig.add(http.StatusOK, dec.Accepted, node, modeNames[o.mode], dec.Start)
		}
	}
	if dig.value() != want {
		r.fail("decision digest over the first %d measured ops: daemon %v, bare GAC %v", len(ops), want, dig.value())
	}
}

// checkFinal fetches the final snapshot and checks that the job table
// holds exactly the acked, uncancelled grants and that no node is
// oversubscribed.
func (r *admitRun) checkFinal() {
	snap, err := r.c.get("/v1/snapshot")
	if err != nil {
		r.fail("final snapshot: %v", err)
		return
	}
	_, _, env, err := restoreGAC(snap)
	if err != nil {
		r.fail("final snapshot: %v", err)
		return
	}
	var missing, extra []int
	for id := range r.live {
		if _, ok := env.Jobs[strconv.Itoa(id)]; !ok {
			missing = append(missing, id)
		}
	}
	for key := range env.Jobs {
		if id, err := strconv.Atoi(key); err != nil || !r.live[id] {
			extra = append(extra, id)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Ints(missing)
		sort.Ints(extra)
		r.fail("final snapshot job table: %d acked grants missing %v, %d unexpected %v",
			len(missing), head(missing), len(extra), head(extra))
	}
}

func head(ids []int) []int {
	if len(ids) > 5 {
		return ids[:5]
	}
	return ids
}

// outcome is what one workload run hands back to main.
type outcome struct {
	attempted int
	failed    int
	notes     []string
	e2e       map[string]float64
	tail      map[string]float64
	phase     phase
	// liveDrift is the stationarity guard, an exact count: the mean live
	// grant population over the last third of the measured ops relative
	// to the first third, minus one. Zero for sim workloads, whose ops
	// all start from the same state.
	liveDrift float64
}

// setUpRepeated sets up setupRepeats times, each from scratch in its own
// directory, and keeps the last daemon. The tape is deterministic, so
// every repetition must arrive at the same pre-crash snapshot.
func (r *admitRun) setUpRepeated(seed int64, dir string) (pre []byte, setups []time.Duration, err error) {
	for rep := 0; rep < setupRepeats; rep++ {
		if rep > 0 {
			r.c.closeIdle()
			r.d.crash()
		}
		t0 := time.Now()
		snap, err := r.setUp(seed, filepath.Join(dir, strconv.Itoa(rep)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
		if rep > 0 && !bytes.Equal(snap, pre) {
			r.fail("set-up %d reached a different pre-crash snapshot than set-up 0", rep)
		}
		pre = snap
	}
	return pre, setups, nil
}

// runAdmit is the untraced admit workload: set up, measure, check.
func runAdmit(spec admitSpec, seed int64, dir string) (outcome, error) {
	r := &admitRun{spec: spec}
	pre, setups, err := r.setUpRepeated(seed, dir)
	if err != nil {
		return outcome{}, err
	}
	warmSub, warmAcc := r.nSub, r.nAcc

	rec := make([]op, min(spec.ops, mirrorProbes/spec.nodes))
	var recDigest float64
	var liveSum [3]int // live grants summed over each third of the ops
	r.dig = newDigest()
	ph := measure(spec.ops, func(i int) time.Duration {
		o, lat := r.step()
		liveSum[i*3/spec.ops] += len(r.live)
		if i < len(rec) {
			rec[i] = o
			if i == len(rec)-1 {
				recDigest = r.dig.value()
			}
		}
		return lat
	})
	live := liveHeapMB()
	full := r.dig.value()

	r.checkMirror(pre, rec, recDigest)
	r.checkFinal()
	r.c.closeIdle()
	if err := r.d.close(); err != nil {
		r.fail("draining the daemon: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return outcome{}, err
	}

	out := outcome{attempted: r.nOps, failed: r.failed, notes: r.notes, phase: ph}
	out.liveDrift = float64(liveSum[2])/float64(liveSum[0]) - 1
	out.e2e, out.tail = ph.endToEnd(setups, live)
	out.tail["accept_frac"] = float64(r.nAcc-warmAcc) / float64(r.nSub-warmSub)
	out.tail["decision_digest"] = full
	return out, nil
}

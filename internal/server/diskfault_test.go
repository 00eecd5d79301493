package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"syscall"
	"testing"
)

// gridOp is one request of the disk-fault grid's stream.
type gridOp struct {
	method, path string
	body         []byte
}

// decides reports whether a 200 answer to op changed the durable state.
func (op gridOp) decides() bool { return op.path == "/v1/submit" || op.path == "/v1/cancel" }

func (op gridOp) String() string { return fmt.Sprintf("%s %s %s", op.method, op.path, op.body) }

func gridSubmit(rng *rand.Rand, id int, clock int64) SubmitRequest {
	req := SubmitRequest{JobID: id, Mode: []string{"strict", "strict", "elastic", "opportunistic"}[rng.Intn(4)],
		Cores: 1 + rng.Intn(2), Ways: 2 + rng.Intn(7), Arrival: clock, Negotiate: rng.Intn(4) == 0}
	if req.Mode == "elastic" {
		req.Slack = 0.1
	}
	if req.Mode != "opportunistic" {
		req.TW = 500 + rng.Int63n(3000)
		req.DeadlineIn = req.TW * (1 + rng.Int63n(4))
	}
	return req
}

// faultStream is the grid's seeded stream: 64 requests — submits of
// every mode, some through the negotiation ladder, negotiate offers,
// cancels of earlier submits, one persist=1 — then a drain. Every body
// carries its own arrival or now stamp.
func faultStream() []gridOp {
	rng := rand.New(rand.NewSource(12))
	var ops []gridOp
	post := func(path string, v any) {
		b, _ := json.Marshal(v)
		ops = append(ops, gridOp{"POST", path, b})
	}
	var ids []int
	clock := int64(1)
	for i := 1; i <= 64; i++ {
		clock += 40 + rng.Int63n(300)
		switch r := rng.Intn(10); {
		case i == 40:
			ops = append(ops, gridOp{"GET", "/v1/snapshot?persist=1", nil})
		case r < 2 && len(ids) > 0:
			k := rng.Intn(len(ids))
			post("/v1/cancel", CancelRequest{JobID: ids[k], Now: clock})
			ids = append(ids[:k], ids[k+1:]...)
		case r == 2:
			post("/v1/negotiate", gridSubmit(rng, 1000+i, clock))
		default:
			post("/v1/submit", gridSubmit(rng, i, clock))
			ids = append(ids, i)
		}
	}
	return append(ops, gridOp{"POST", "/v1/drain", nil})
}

// furtherOps are the submits a recovered daemon takes before the second
// crash: fewer records than a rotation needs.
func furtherOps() []gridOp {
	var ops []gridOp
	for i := 0; i < 5; i++ {
		b, _ := json.Marshal(SubmitRequest{JobID: 5000 + i, Mode: "strict", Cores: 1, Ways: 2, TW: 800, DeadlineIn: 8000, Arrival: 1_000_000 + 100*int64(i)})
		ops = append(ops, gridOp{"POST", "/v1/submit", b})
	}
	return ops
}

func gridConfig() Config {
	cfg := fakeConfig()
	cfg.SnapshotEvery = 8
	return cfg
}

// gridImage is one crash: the disk's image, how many requests had been
// answered, and whether the crash interrupted the next one.
type gridImage struct {
	img      crashImage
	answered int
	inFlight bool
}

// gridTrace is one disk operation of a run: the request it served (-1
// while New recovered) and its kind and index among its kind.
type gridTrace struct {
	req int
	op  diskOp
	n   int
}

// gridRun is one run of the stream under a fault plan.
type gridRun struct {
	plan   []diskFault
	codes  []int
	bodies [][]byte
	// before is the live state before request i (len(ops): at the end),
	// where an image needs it.
	before map[int][]byte
	images []gridImage
	trace  []gridTrace
}

// gridServer is a daemon of the grid and its handler, built once.
type gridServer struct {
	s *Server
	h http.Handler
}

func newGridServer(disk *fakeDisk) (gridServer, error) {
	s, err := newServer(gridConfig(), disk)
	if err != nil {
		return gridServer{}, err
	}
	return gridServer{s, s.Handler()}, nil
}

func (g gridServer) serve(op gridOp) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, httptest.NewRequest(op.method, op.path, bytes.NewReader(op.body)))
	return rec
}

// runGrid drives ops into a fresh daemon on a fake disk with the plan's
// faults. It takes a crash image before every disk operation when
// everyOp is set; else after each request a fault fired in and after
// the first request answered 200 after that.
func runGrid(t *testing.T, ops []gridOp, plan []diskFault, everyOp bool) *gridRun {
	t.Helper()
	r := &gridRun{plan: plan, before: map[int][]byte{}}
	disk := newFakeDisk(plan...)
	cur := -1
	var counts [nDiskOps]int
	disk.onOp = func(op diskOp, name string) {
		r.trace = append(r.trace, gridTrace{req: cur, op: op, n: counts[op]})
		counts[op]++
		if everyOp {
			r.images = append(r.images, gridImage{img: disk.image(), answered: max(cur, 0), inFlight: cur >= 0})
		}
	}
	g, err := newGridServer(disk)
	if err != nil {
		t.Fatal(err)
	}
	afterFault := false
	for i, op := range ops {
		if everyOp {
			r.before[i] = stateOf(t, g.s)
		}
		cur = i
		fired := disk.fired
		rec := g.serve(op)
		r.codes = append(r.codes, rec.Code)
		r.bodies = append(r.bodies, rec.Body.Bytes())
		if !everyOp && (disk.fired > fired || afterFault && rec.Code == http.StatusOK) {
			r.before[i+1] = stateOf(t, g.s)
			r.images = append(r.images, gridImage{img: imageOf(disk), answered: i + 1})
			afterFault = disk.fired > fired
		}
	}
	r.before[len(ops)] = stateOf(t, g.s)
	return r
}

// gridRef renders the acked state independently: a fault-free daemon
// fed only the requests the run answered 200 that decide, whose answers
// must be the run's. It is cached by the list of those requests.
type gridRef struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (ref *gridRef) check(t *testing.T, ops []gridOp, r *gridRun) {
	t.Helper()
	var acked []int
	for i, op := range ops {
		if op.decides() && r.codes[i] == http.StatusOK {
			acked = append(acked, i)
		}
	}
	key := fmt.Sprint(acked)
	ref.mu.Lock()
	want, ok := ref.m[key]
	ref.mu.Unlock()
	if !ok {
		g, err := newGridServer(newFakeDisk())
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range acked {
			rec := g.serve(ops[i])
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), r.bodies[i]) {
				t.Fatalf("plan %v: request %d (%s) answered %s, a fault-free daemon given the acked requests %d %s",
					r.plan, i, ops[i], r.bodies[i], rec.Code, rec.Body)
			}
		}
		want = stateOf(t, g.s)
		ref.mu.Lock()
		ref.m[key] = want
		ref.mu.Unlock()
	}
	if got := r.before[len(ops)]; !bytes.Equal(got, want) {
		t.Fatalf("plan %v: with no crash, the state once the fault cleared is not the acked state:\n%s", r.plan, firstDiff(got, want))
	}
}

// checkImage recovers every crash of one image — both models, every
// landing — and requires recovery to succeed and to reach a state the
// answers allow: the state after the last acked request, or that plus
// a request whose outcome the crash left unknown (the one in flight, or
// a 500 of unknown outcome that no later 200 cleared). Each recovered
// daemon then acks further requests and crashes again, and must recover
// what it acked.
func checkImage(t *testing.T, ops []gridOp, r *gridRun, gi gridImage, rng *rand.Rand) {
	t.Helper()
	a := gi.answered
	base := r.before[a]
	allowed := [][]byte{base}
	var maybe []gridOp
	if gi.inFlight && ops[a].decides() {
		allowed = append(allowed, r.before[a+1])
		maybe = append(maybe, ops[a])
	}
	for k := a - 1; k >= 0 && r.codes[k] != http.StatusOK; k-- {
		if ops[k].decides() && outcomeUnknown(r.bodies[k]) {
			maybe = append(maybe, ops[k])
			break
		}
	}
	where := fmt.Sprintf("plan %v, crash after %d requests (in flight: %v)", r.plan, a, gi.inFlight)
	for model := 0; model < gi.img.models(); model++ {
		for pat := 0; pat < gi.img.landings(); pat++ {
			disk2 := gi.img.restore(model, pat, rng)
			g2, err := newGridServer(disk2)
			if err != nil {
				t.Fatalf("%s, model %d, landing %d: recovery failed: %v", where, model, pat, err)
			}
			got := stateOf(t, g2.s)
			ok := false
			for _, st := range allowed {
				ok = ok || bytes.Equal(got, st)
			}
			for _, op := range maybe {
				ok = ok || bytes.Equal(got, applyOp(t, gridConfig(), base, op.path, op.body))
			}
			if !ok {
				t.Fatalf("%s, model %d, landing %d: recovered a state the answers do not allow:\n%s", where, model, pat, firstDiff(got, base))
			}
			if pat > 0 || r.plan != nil {
				continue // the second crash follows the fault-free run's crashes
			}

			for _, op := range furtherOps() {
				if rec := g2.serve(op); rec.Code != http.StatusOK {
					t.Fatalf("%s, model %d, landing %d: after recovery, %s answered %d %s", where, model, pat, op, rec.Code, rec.Body)
				}
			}
			acked, img2 := stateOf(t, g2.s), imageOf(disk2)
			for pat2 := 0; pat2 < img2.landings(); pat2++ {
				s3, err := newServer(gridConfig(), img2.restore(model, pat2, rng))
				if err != nil {
					t.Fatalf("%s, model %d, landing %d: the second recovery failed: %v", where, model, pat, err)
				}
				if got := stateOf(t, s3); !bytes.Equal(got, acked) {
					t.Fatalf("%s, model %d, landing %d: the second crash lost acked requests:\n%s", where, model, pat, firstDiff(got, acked))
				}
			}
		}
	}
}

// TestDiskFaultGrid holds the append contract (DESIGN §12.1) and the
// rotation's crash windows (§12.2) on the fake disk, over the seeded
// stream of faultStream. With no fault, a crash before every disk
// operation; then every fault the stream's requests can meet alone —
// every kind at every index of its kind: EIO or ENOSPC or a short write
// on a write, EIO on a sync, a rename or a directory sync, ENOSPC on a
// create — and, for a sampled set of appends whose fsync fails or whose
// write is short, that fault and a second one at each operation of the
// re-anchor it starts. Every run checks that, with no crash, its final
// state is the acked state, and crashes after the request a fault fired
// in, after the first 200 after it and at the end: recovery never
// fails, keeps every 200-acked grant and cancel, applies no request
// answered with a definite 500, and may go either way on one of unknown
// outcome.
func TestDiskFaultGrid(t *testing.T) {
	ops := faultStream()
	ref := &gridRef{m: map[string][]byte{}}
	base := runGrid(t, ops, nil, true)
	for i, op := range ops {
		if code := base.codes[i]; code != http.StatusOK && code != http.StatusNotFound {
			t.Fatalf("fault-free: %s answered %d %s", op, code, base.bodies[i])
		}
	}
	ref.check(t, ops, base)

	// Each check is a parallel subtest with its own seeded generator.
	check := func(name string, do func(t *testing.T, rng *rand.Rand)) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			h := fnv.New64a()
			h.Write([]byte(name))
			do(t, rand.New(rand.NewSource(int64(h.Sum64()))))
		})
	}
	for lo := 0; lo < len(base.images); lo += 64 {
		images := base.images[lo:min(lo+64, len(base.images))]
		check(fmt.Sprintf("no-fault/crash-%d", lo), func(t *testing.T, rng *rand.Rand) {
			for _, gi := range images {
				checkImage(t, ops, base, gi, rng)
			}
		})
	}
	run := func(plan ...diskFault) {
		check(fmt.Sprint(plan), func(t *testing.T, rng *rand.Rand) {
			r := runGrid(t, ops, plan, false)
			ref.check(t, ops, r)
			for _, gi := range r.images {
				checkImage(t, ops, r, gi, rng)
			}
		})
	}
	for _, tr := range base.trace {
		f := diskFault{op: tr.op, n: tr.n, err: syscall.EIO}
		switch {
		case tr.req < 0:
			continue // New's own operations: TestRecoverDiskErrors
		case tr.op == opWrite:
			run(f)
			run(diskFault{op: opWrite, n: tr.n, err: syscall.ENOSPC})
			run(diskFault{op: opWrite, n: tr.n, err: syscall.EIO, short: true})
		case tr.op == opCreate:
			f.err = syscall.ENOSPC
			fallthrough
		default:
			run(f)
		}
	}

	// A short write or a failed fsync on the record of every fifteenth
	// deciding request, and a second fault at each operation of the
	// re-anchor it starts. The record's write and sync are the request's
	// first of their kind.
	appends := 0
	for i, op := range ops {
		if !op.decides() || base.codes[i] != http.StatusOK {
			continue
		}
		if appends++; appends%15 != 1 {
			continue
		}
		for _, first := range []diskOp{opWrite, opSync} {
			var f diskFault
			for _, tr := range base.trace {
				if tr.req == i && tr.op == first {
					f = diskFault{op: first, n: tr.n, err: syscall.EIO, short: first == opWrite}
					break
				}
			}
			fired := false
			for _, tr := range runGrid(t, ops, []diskFault{f}, false).trace {
				if tr.req != i {
					continue
				}
				if fired {
					f2 := diskFault{op: tr.op, n: tr.n, err: syscall.EIO}
					if tr.op == opCreate {
						f2.err = syscall.ENOSPC
					}
					run(f, f2)
				}
				fired = fired || tr.op == f.op && tr.n == f.n
			}
		}
	}
}

package sim

import (
	"context"
	"fmt"

	"cmpqos/internal/mem"
	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

// Runner executes one simulation configuration to completion. The
// epoch loop lives here; the policy decisions it sequences — core
// assignment, way allocation, admission placement — are the pipeline
// stages Config names, resolved at construction (registry.go); what consumes
// the run, built in or attached, is in sink.go.
type Runner struct {
	*nodeShared
	seed     int64
	lac      *qos.LAC
	bus      *mem.Bus
	model    model
	sched    Scheduler
	wayAlloc WayAllocator
	// sinks holds AddSink observers only; the built-in consumers (frag,
	// seriesS) are concrete fields so step reaches them without dynamic
	// dispatch on the hot path (see sink.go).
	sinks   []Sink
	frag    *fragSink
	seriesS *seriesSink

	accepted  []*Job
	acceptedN int // total accepted ever (== len(accepted) unless compacted)
	rejected  int
	doneN     int // finished jobs still in accepted (finishJob and violate count them)
	fold      *jobFold
	now       int64
	src       *arrivalSource // nil until processArrivals runs: a fleet node's stays nil
	submitIdx int
	epochIdx  int64

	// Epoch-plan cache (§7.4): the paper's framework re-evaluates
	// admission and partitioning only at QoS events, so between events the
	// core/way plan built by the scheduler and allocator is reused
	// verbatim and an epoch reduces to the linear advance. planOK is
	// cleared by every invalidating event (accepted arrival, completion,
	// termination); planWake is the first cycle at which a timed event
	// (job start, switch-back) forces a rebuild regardless. Steal adjusts
	// and rollbacks change only way counts — never job states or core
	// placement — so they set planWaysDirty instead, and the next epoch
	// redoes just the way split on the cached core assignment. Soundness
	// rests on the pipeline contract that Assign/Allocate are
	// deterministic pure functions of the runner's job/fault state.
	planWake int64

	// Event-horizon fast-forward (§11): when the cached plan holds and
	// every per-epoch quantity is provably constant until the next
	// event, steadyWindow computes how many epochs can be advanced in
	// closed form and applySteady advances them (fastforward.go), behind
	// the static gate nodeShared.skipOK; nStepped and
	// nSkipped are the observable epoch counters (Report.EpochsStepped
	// / EpochsSkipped); ffDeltas is steadyWindow's per-job delta scratch
	// — one half per parity of the bus cycle it proved (ffPeriod 1 or 2),
	// which half is which flipped by ffSwapped (parityDeltas) — consumed
	// by the applySteady that follows it.
	// ffProvedK is the window nextHorizon proved at cycle ffProvedAt,
	// still priced in that scratch: catchUp applies it instead of proving
	// it again while the node's clock still reads ffProvedAt and step or
	// admit has not dropped it (fastforward.go). ffPricedAt holds, per
	// parity, the bus utilization at which that scratch holds a complete
	// pricing of the current plan (NaN: none), which epochDeltas and
	// advanceAll reuse instead of pricing the plan again (DESIGN §11.7);
	// buildPlan clears it.
	nStepped   int64
	nSkipped   int64
	ffDeltas   []jobDelta
	ffPricedAt [2]float64
	ffProvedAt int64
	ffProvedK  int64

	// Closed-loop control plane (progress.go): the configured feedback
	// controller (nil = "static", the open-loop default) and its state,
	// allocated with it (the tick cadence is nodeShared.ctrlInterval).
	ctrl      Controller
	ctrlState *ctrlState

	// Admission scratch: one reusable RUM passed by pointer so the ~400
	// probes per tw window don't each box a fresh value into the Request
	// interface (the LAC copies what it needs and never retains the
	// pointer).
	rum           qos.RUM
	planIdleCores float64 // memoized fragDeltas of the plan's state
	planIdleWays  float64
	planInternal  float64

	// Fault injection (internal/sim/fault.go): the plan's state, nil for
	// a run without a fault plan. coreDown and latFactor stay inline —
	// the scheduler and the miss penalty read them every epoch. coreDown
	// has bit c set while core c is failed (Config.Validate caps Cores
	// at 64; read it through isDown). latFactor is 1.0 whenever no spike
	// is active, and multiplying a float64 by exactly 1.0 is the
	// identity, so the fault-free hot path stays bit-identical.
	faults    *faultState
	coreDown  uint64
	latFactor float64

	// byCore is the epoch plan's core assignment, Assign's result: the
	// running jobs on each core. The plan cache replays it between QoS
	// events, so it is the one per-epoch list that lives across epochs;
	// the scheduler and allocator keep nothing else.
	byCore [][]*Job

	// The one-byte fields, together so they pack into the last words.
	ffPeriod      int8 // the proved window's bus period, 1 or 2
	ffSwapped     bool // ffDeltas' second half holds parity 0 (parityDeltas)
	ffFails       int8 // consecutive priced failed proofs (backoff input)
	ffDefer       int8 // steps left before the next window proof attempt
	external      bool // arrivals are injected by a ClusterRunner
	planOK        bool // the cached epoch plan holds (see planWake)
	planWaysDirty bool // the cached plan needs only its way split redone
	ffPriced      bool // last window attempt reached the O(jobs) delta pricing
	// reference is set only by this package's differential tests: it
	// makes buildPlan leave planOK clear and learnStart learn nothing, so
	// every epoch is stepped on a plan rebuilt from scratch and every
	// arrival runs LAC.Admit. A plan that never holds proves no window,
	// keeps no pricing and leaves no catch-up record, so this is the
	// engine with every fast path off — the run production is held to.
	reference bool
}

// arrivalSource is a node's own arrivals: the Poisson stream's cursor
// and next stamp, or the script's position, the deadline classes, and
// what the last rejection taught. A fleet node takes the cluster's
// arrivals and has none.
type arrivalSource struct {
	arrivals  *workload.Arrivals
	dlmix     *workload.DeadlineMix
	nextArr   int64
	scriptPos int
	// The current slot's earliest start, learned when its arrival was
	// rejected, and LAC.Gen()+1 at that moment (0: no bound). It lets
	// admitNext reject the slot's later arrivals that cannot reach it
	// without an admission test (learnStart).
	boundStart int64
	boundGen   uint64
}

// nodeShared is the immutable half of a Runner: what New derives from the
// Config alone. A table-engine fleet builds one for all its nodes and
// its worker goroutines read it concurrently; nothing writes it after
// newShared returns. A node's seed lives on the Runner (cfg.Seed here is
// the constructor's — read Runner.seed); the trace engine profiles its
// tw table under that seed, so its nodes each build their own.
type nodeShared struct {
	cfg Config
	// tmpl is what the node derives from every template the
	// configuration can submit, by slot: the workload's jobs in order,
	// then the script's. refTW is the largest budget.
	tmpl         []tmplEntry
	refTW        int64
	reqWays      int
	ctrlInterval int64 // feedback-controller tick cadence in cycles
	// skipOK gates the fast-forward statically: closed-form per-epoch
	// deltas need the table model (the trace engine draws fresh RNG per
	// epoch) and no per-epoch telemetry.
	skipOK bool
}

// tmplEntry is one template's tw budget, resolved profile and mode
// (Config.ModeForHint of its hint: computing that per arrival copied the
// whole Config on the hottest path).
type tmplEntry struct {
	tw   int64
	prof *jobProfile
	mode qos.Mode
}

// newShared derives the immutable half of a valid configuration.
func newShared(cfg Config) *nodeShared {
	sh := &nodeShared{
		cfg:          cfg,
		reqWays:      cfg.RequestWays,
		ctrlInterval: cfg.CtrlIntervalCycles,
		skipOK:       cfg.Engine != EngineTrace && !cfg.RecordSeries,
	}
	if sh.ctrlInterval == 0 {
		sh.ctrlInterval = ctrlDefaultIntervalEpochs * cfg.EpochCycles
	}
	if sh.reqWays == 0 {
		sh.reqWays = qos.PresetMedium().CacheWays
	}
	sh.buildTwTable()
	return sh
}

// New builds a runner for the configuration.
func New(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newNode(newShared(cfg), cfg.Seed), nil
}

// newNode builds the mutable half. The arrival source, with its arrival
// and deadline cursors, is created lazily by processArrivals: cluster
// nodes never draw from it, and each cursor would pin a tape per node
// seed in the process-wide store.
func newNode(sh *nodeShared, seed int64) *Runner {
	r := &Runner{nodeShared: sh, seed: seed, bus: mem.NewBus(sh.cfg.Mem), ffPricedAt: unpriced}
	cfg := r.Config()
	r.sched = schedulers[cfg.schedulerName()]
	r.wayAlloc = allocators[cfg.allocatorName()]
	if r.ctrl = newController(cfg); r.ctrl != nil {
		r.ctrlState = &ctrlState{}
	}
	if cfg.FoldCompleted {
		// Streaming mode: per-job outcomes fold into aggregates at
		// completion, so memory stays O(live jobs) regardless of how many
		// jobs the run admits.
		r.fold = &jobFold{}
	}

	if !cfg.Policy.noAdmission() {
		var opts []qos.LACOption
		if cfg.Policy == AllStrictAutoDown {
			opts = append(opts, qos.WithAutoDowngrade(),
				qos.WithAutoDowngradeMinSlack(autoDownMinSlack))
		}
		r.lac = qos.NewLAC(qos.ResourceVector{Cores: cfg.Cores, CacheWays: cfg.L2.Ways}, opts...)
	}
	switch cfg.Engine {
	case EngineTrace:
		r.model = newTraceModel(cfg)
	default:
		r.model = &tableModel{}
	}
	r.byCore = make([][]*Job, cfg.Cores)
	if pts := buildFaultPoints(cfg.Faults); pts != nil {
		r.faults = &faultState{pts: pts}
	}
	r.latFactor = 1.0
	r.frag = &fragSink{}
	if cfg.RecordSeries {
		r.seriesS = &seriesSink{r: r}
	}
	return r
}

// Config returns the run's configuration, with the node's own seed in
// place of the one the shared value carries.
func (r *Runner) Config() Config {
	cfg := r.cfg
	cfg.Seed = r.seed
	return cfg
}

// Run executes the simulation and returns its report.
func (r *Runner) Run() (*Report, error) {
	return r.RunContext(context.Background())
}

// RunContext is Run with cancellation: the epoch loop polls ctx every
// 64 stepped iterations (frequent enough to cancel promptly, rare
// enough to stay off the hot path — a dedicated counter, because
// epochIdx jumps across fast-forwarded windows and a modulus on it
// could alias to never polling) and after every closed-form advance
// chunk, so cancellation latency is bounded even when a single steady
// window covers millions of epochs. A nil ctx never cancels.
func (r *Runner) RunContext(ctx context.Context) (*Report, error) {
	polls := 0
	for !r.done() {
		if r.now > maxCycles {
			return nil, fmt.Errorf("sim: exceeded safety horizon %d cycles with %d/%d accepted jobs done",
				maxCycles, r.doneN, len(r.accepted))
		}
		if ctx != nil {
			if polls&63 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: run canceled after %d cycles: %w", r.now, err)
				}
			}
			polls++
		}
		r.step()
		for r.skipOK {
			k := r.steadyWindow(ffChunkEpochs)
			if k <= 0 {
				break
			}
			r.applySteady(k)
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: run canceled after %d cycles: %w", r.now, err)
				}
			}
		}
	}
	return r.report(), nil
}

// step advances the simulation by one epoch: faults, arrivals, the
// scheduler and allocator stages (or the cached plan), the model
// advance, and the end-of-epoch sink notification. In the steady state
// — no QoS event since the last plan build, and no timed event (job
// start, switch-back) due yet — the epoch reuses the cached core/way
// plan and skips straight to the advance; the reused plan is
// byte-for-byte the one a full rebuild would produce, because every
// input of Assign/Allocate is unchanged between events.
func (r *Runner) step() {
	r.ffProvedK = 0
	epochEnd := r.now + r.cfg.EpochCycles
	r.applyFaults(epochEnd)
	if !r.external {
		r.processArrivals(epochEnd)
	}
	if r.ctrl != nil && r.liveCount() > 0 && r.ctrlDue(epochEnd) {
		// A controller tick lands inside this epoch: retune before the
		// plan is (re)built. The fast-forward never skips across a tick
		// (steadyAttempt caps the window), so stepped and skipped runs
		// observe identical tick sequences.
		r.ctrlTick()
	}
	byCore := r.byCore
	switch {
	case r.planOK && r.now < r.planWake && !r.planWaysDirty:
		// Steady state: reuse the plan verbatim.
	case r.planOK && r.now < r.planWake:
		// A steal adjust or rollback moved way counts but left every job
		// state and core placement untouched: redo only the way split on
		// the cached core assignment.
		r.wayAlloc.Allocate(r, byCore)
		r.applyCtrlBoosts(byCore)
		r.planWaysDirty = false
		r.buildPlan(byCore)
	default:
		r.startJobs()
		r.switchBacks()
		byCore = r.sched.Assign(r)
		r.wayAlloc.Allocate(r, byCore)
		r.applyCtrlBoosts(byCore)
		r.planWaysDirty = false
		r.buildPlan(byCore)
	}
	// The trace engine's partition/shadow state must see every epoch
	// (frozen shadow targets heal over time even with a fixed plan); the
	// table engine's applyPartition is a no-op.
	r.model.applyPartition(byCore, r.now)
	r.advanceAll(byCore)
	var idleCores, idleWays, internal float64
	if r.planOK {
		// No event fired during the advance, so the post-advance state is
		// exactly the plan's state and the memoized deltas apply verbatim.
		idleCores, idleWays, internal = r.planIdleCores, r.planIdleWays, r.planInternal
	} else {
		idleCores, idleWays, internal = r.fragDeltas(byCore)
	}
	r.bus.Roll(r.cfg.EpochCycles)
	r.frag.idleCores += idleCores
	r.frag.idleWays += idleWays
	r.frag.internal += internal
	if r.seriesS != nil {
		r.seriesS.sample(r.now, r.epochIdx)
	}
	r.now = epochEnd
	r.epochIdx++
	r.nStepped++
	if r.fold != nil && r.doneN >= 256 && r.doneN >= len(r.accepted)/2 {
		r.compact()
	}
}

// compact drops finished jobs from the accepted slice (streaming mode
// only — their outcomes were folded at completion). Live jobs keep
// their acceptance order; doneN tracks finished jobs still in the
// slice, so it drains here.
func (r *Runner) compact() {
	w := 0
	for _, j := range r.accepted {
		if j.State != StateDone && j.State != StateTerminated {
			r.accepted[w] = j
			w++
		}
	}
	for i := w; i < len(r.accepted); i++ {
		r.accepted[i] = nil
	}
	r.doneN -= len(r.accepted) - w
	r.accepted = r.accepted[:w]
}

// liveCount returns the number of accepted jobs not yet finished.
func (r *Runner) liveCount() int { return len(r.accepted) - r.doneN }

// fastForwardIdle advances an idle node to cycle `to` in one step: k
// skipped epochs contribute k empty-node fragmentation deltas and one
// rolled-up bus window (zero misses yield zero utilization for any
// window length, so one Roll(k·epoch) is exactly k Roll(epoch) calls).
// The cluster layer calls this for nodes it retired; it is only sound
// with no fault point pending (capacity and latency factor constant —
// the retire rule) and no telemetry series (the cluster's Validate).
func (r *Runner) fastForwardIdle(to int64) {
	k := (to - r.now) / r.cfg.EpochCycles
	if k <= 0 {
		return
	}
	// float64(…) rounds each product before the sum, so no platform
	// fuses it into a multiply-add (the Go spec allows that fusion).
	r.frag.idleCores += float64(float64(k) * float64(r.cfg.Cores-r.downCores()))
	r.frag.idleWays += float64(float64(k) * float64(r.cfg.L2.Ways-r.waysDown()))
	r.bus.Roll(k * r.cfg.EpochCycles)
	r.now += k * r.cfg.EpochCycles
	r.epochIdx += k
	r.nSkipped += k
}

// buildPlan memoizes the freshly built epoch plan: its fragmentation
// deltas, and the next cycle at which a timed transition (waiting job
// start, auto-downgrade switch-back) changes scheduling inputs and
// forces a rebuild. Event-driven invalidation (arrival, completion,
// steal) clears planOK at the event site. A new plan drops the record of
// the old one's pricing.
func (r *Runner) buildPlan(byCore [][]*Job) {
	r.ffPricedAt = unpriced
	if r.reference {
		r.planOK = false
		return
	}
	r.planIdleCores, r.planIdleWays, r.planInternal = r.fragDeltas(byCore)
	wake := maxCycles
	for _, j := range r.accepted {
		switch {
		case j.State == StateWaiting:
			if j.StartAt < wake {
				wake = j.StartAt
			}
		case j.State == StateRunning && j.AutoDowngraded && !j.switched && j.SwitchBack < wake:
			wake = j.SwitchBack
		}
	}
	r.planWake = wake
	r.planOK = true
}

func (r *Runner) done() bool {
	if len(r.cfg.Script) > 0 {
		return r.src != nil && r.src.scriptPos == len(r.cfg.Script) && r.liveCount() == 0
	}
	return r.acceptedN >= r.cfg.AcceptTarget && r.liveCount() == 0
}

// Package sim is the discrete-event CMP simulator that stands in for the
// paper's Simics full-system setup: four in-order cores, a shared
// way-partitioned L2, an off-chip bus model, the QoS framework (LAC,
// execution modes, automatic downgrade), the resource-stealing
// controller, and the EqualPart baseline (no admission control, equal
// cache partitions, OS-style timesharing — the paper's stand-in for
// Virtual Private Caches).
//
// Two execution engines share the scheduler: the *table* engine drives
// each job's CPI from its calibrated miss-ratio curve, and the *trace*
// engine pushes each job's synthetic address stream through the real
// cache model of internal/cache (including duplicate tags for stealing).
package sim

import (
	"fmt"

	"cmpqos/internal/cache"
	"cmpqos/internal/fault"
	"cmpqos/internal/mem"
	"cmpqos/internal/qos"
	"cmpqos/internal/workload"
)

// Policy is one of the Table 2 evaluation configurations.
type Policy int

const (
	// AllStrict runs every job in the Strict mode.
	AllStrict Policy = iota
	// Hybrid1 honors Opportunistic hints: 70% Strict + 30% Opportunistic.
	Hybrid1
	// Hybrid2 honors Elastic and Opportunistic hints: 40% Strict + 30%
	// Elastic(X) + 30% Opportunistic.
	Hybrid2
	// AllStrictAutoDown is AllStrict with automatic mode downgrade of
	// jobs with moderate or relaxed deadlines.
	AllStrictAutoDown
	// EqualPart is the non-QoS baseline: no admission control, default
	// OS scheduling, L2 equally partitioned among cores.
	EqualPart
	// UCPPart is the §2 throughput-optimizer baseline: like EqualPart it
	// admits everything and timeshares, but the L2 is repartitioned each
	// epoch by utility (Qureshi's lookahead over the running jobs' miss
	// curves). It maximizes aggregate hits and guarantees nothing —
	// the contrast the paper draws with reservation-based QoS.
	UCPPart
)

// Policies lists all Table 2 configurations in presentation order
// (UCPPart is an extension baseline, not part of the paper's five).
func Policies() []Policy {
	return []Policy{AllStrict, Hybrid1, Hybrid2, AllStrictAutoDown, EqualPart}
}

// noAdmission reports whether the policy bypasses admission control.
func (p Policy) noAdmission() bool { return p == EqualPart || p == UCPPart }

// String names the policy as the paper does.
func (p Policy) String() string {
	switch p {
	case AllStrict:
		return "All-Strict"
	case Hybrid1:
		return "Hybrid-1"
	case Hybrid2:
		return "Hybrid-2"
	case AllStrictAutoDown:
		return "All-Strict+AutoDown"
	case EqualPart:
		return "EqualPart"
	case UCPPart:
		return "UCP-Part"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Engine selects the execution model.
type Engine int

const (
	// EngineTable drives CPI from calibrated miss curves (fast,
	// deterministic; the default for scheduler-level figures).
	EngineTable Engine = iota
	// EngineTrace drives miss rates from synthetic address streams
	// through the real partitioned cache and duplicate tags.
	EngineTrace
)

// String names the engine.
func (e Engine) String() string {
	if e == EngineTrace {
		return "trace"
	}
	return "table"
}

// ScriptedJob is one explicit submission of a scripted run.
type ScriptedJob struct {
	Template workload.JobTemplate
	// Arrival is the submission cycle.
	Arrival int64
	// DeadlineFactor overrides the deadline (ta + factor·tw); 0 draws
	// from the standard 50/30/20 mix.
	DeadlineFactor float64
	// Instr overrides the job's instruction count (0 = Config.JobInstr);
	// its tw scales proportionally, so batch files with heterogeneous
	// wall-clock requests simulate faithfully.
	Instr int64
}

// Config parameterizes one simulation run.
type Config struct {
	Policy   Policy
	Workload workload.Composition
	Engine   Engine

	Cores int
	L2    cache.Config
	Mem   mem.Config

	// JobInstr is the instruction count per job. The paper simulates
	// 200 M instructions per job; the table engine handles that
	// directly, while trace runs typically scale it down (the shape is
	// instruction-count invariant because deadlines scale with tw).
	JobInstr int64
	// EpochCycles is the scheduler quantum: partition updates, arrivals
	// and progress accounting happen at epoch boundaries.
	EpochCycles int64
	// StealIntervalInstr is the cache repartitioning interval for
	// resource stealing, in Elastic-job instructions (paper: 2 M).
	StealIntervalInstr int64
	// ElasticSlack is X for Elastic(X) jobs (paper default 5%).
	ElasticSlack float64
	// TwMargin inflates the 7-way execution time into the requested
	// maximum wall-clock time tw (users overspecify slightly).
	TwMargin float64
	// ProbesPerTw is the Poisson arrival pressure (paper: 4×128).
	ProbesPerTw float64
	// AcceptTarget is how many accepted jobs constitute the workload.
	AcceptTarget int
	// DisableStealing turns the resource-stealing controller off
	// (ablation; Hybrid-2 then degenerates towards Hybrid-1).
	DisableStealing bool
	// EnforceWallClock terminates reserved jobs that exceed their
	// reserved budget (tw for Strict, tw·(1+X) for Elastic, the deadline
	// for auto-downgraded jobs) — the batch-system semantics embedded in
	// the maximum wall-clock time (§3.2).
	EnforceWallClock bool
	// overrunJobSlot/overrunFactor are this package's test hook for a
	// misbehaving job: the job accepted into the given composition slot
	// gets overrunFactor× the configured instruction count, i.e. the user
	// underspecified tw. Factor 0 or <1 injects nothing.
	overrunJobSlot int
	overrunFactor  float64
	// RequestWays overrides the per-job cache-way request (0 = the
	// paper's 7-way medium preset). Figure 3's illustration uses 40% of
	// the cache.
	RequestWays int
	// DeadlineFactor, when non-zero, fixes every job's deadline at
	// ta + factor·tw instead of drawing the 50/30/20 mix (Figure 3
	// uses 1.5).
	DeadlineFactor float64
	// Script, when non-empty, replaces the Poisson arrival process with
	// an explicit submission list (one admission attempt per entry, no
	// retries); AcceptTarget is ignored and the run ends when every
	// scripted job has been resolved and all accepted ones finished.
	// This is how jobfile-described workloads run end to end.
	Script []ScriptedJob
	// Scheduler, Allocator, and Admission select pipeline policies by
	// name (see registry.go): the core-assignment scheduler,
	// the L2 way allocator, and the reservation placement policy of the
	// admission controller. Empty strings resolve to the
	// Policy-appropriate defaults ("reserved"/"shared",
	// "reserved"/"equal"/"ucp", "fcfs"), which reproduce the paper's
	// behaviour bit for bit. The names are plain Config fields, so policy
	// choices participate in the RunCache memo key automatically.
	Scheduler string
	Allocator string
	Admission string
	// Controller selects the feedback controller that closes
	// the loop between measured progress and the allocation/admission
	// knobs (progress.go): "static" (the default) is the open-loop
	// pipeline, bit-identical to the pre-controller engine; "pid" and
	// "aimd" retune per-job way boosts and LAC admission headroom on the
	// controller cadence. A plain Config field, so the choice
	// participates in the RunCache memo key automatically.
	Controller string
	// CtrlIntervalCycles is the controller tick cadence in cycles
	// (0 = 64 epochs). Ticks are QoS events: the event-horizon
	// fast-forward caps every steady window at the next tick while a
	// controller is active, so the cadence bounds how much skipping a
	// closed-loop run can do.
	CtrlIntervalCycles int64
	// RecordSeries enables per-epoch telemetry sampling (running jobs,
	// reserved ways, bus utilization) in the Report, at one sample per
	// 16 epochs (seriesStride).
	RecordSeries bool
	// FoldCompleted streams finished jobs into the report aggregates at
	// completion time and periodically compacts them out of the live job
	// slice, keeping the runner's memory independent of how many jobs the
	// run admits. The Report then carries the fold's scalar aggregates
	// only — Jobs, Lanes and WallClockByMode stay empty, OppWallClock and
	// the Elastic means zero — which is what the cluster layer needs to
	// simulate million-job fleets. Incompatible with RecordSeries
	// (the series sink censuses the retained job slice).
	FoldCompleted bool
	// Faults is the deterministic fault-injection plan applied during
	// the run: timed core failures/recoveries, cache-way faults, and
	// memory-latency spikes (see internal/fault). The zero value injects
	// nothing and leaves every result bit-identical to a fault-free
	// build. Plan is a plain value, so fault plans participate in the
	// RunCache memo key like every other Config field.
	Faults fault.Plan
	// Seed drives all pseudo-randomness (arrivals, deadline mix,
	// synthetic traces).
	Seed int64
}

// The paper's machine and policy constants that no run varies.
const (
	// sampleEvery is the duplicate-tag set-sampling interval: every 8th
	// set (§6).
	sampleEvery = 8
	// autoDownMinSlack is the minimum relative deadline slack for
	// automatic downgrade: 0.5, so only moderate and relaxed deadlines
	// (Table 2).
	autoDownMinSlack = 0.5
	// maxCycles is the safety horizon; a run aborts beyond it.
	maxCycles int64 = 1 << 40
)

// DefaultConfig returns the paper's evaluation parameters (§6) with the
// table engine and full-length 200 M-instruction jobs.
func DefaultConfig(policy Policy, w workload.Composition) Config {
	return Config{
		Policy:             policy,
		Workload:           w,
		Engine:             EngineTable,
		Cores:              4,
		L2:                 cache.PaperL2(),
		Mem:                mem.Config{PeakBytesPerS: 6.4e9}, // §6: 6.4 GB/s
		JobInstr:           200_000_000,
		EpochCycles:        250_000,
		StealIntervalInstr: 2_000_000,
		ElasticSlack:       0.05,
		TwMargin:           1.05,
		ProbesPerTw:        workload.DefaultProbesPerTw,
		AcceptTarget:       10,
		Seed:               1,
	}
}

// TraceConfig returns DefaultConfig scaled for the trace engine: 8 M
// instructions per job, with the trace model's 1-in-4 access sampling
// (traceAccessShift), keep a full five-configuration sweep under a
// second while preserving the shapes.
func TraceConfig(policy Policy, w workload.Composition) Config {
	c := DefaultConfig(policy, w)
	c.Engine = EngineTrace
	c.JobInstr = 8_000_000
	c.EpochCycles = 100_000
	c.StealIntervalInstr = 250_000
	c.TwMargin = 1.25
	return c
}

// ScaleJobs sets the instructions per job to instr and keeps the paper's
// 1% repartitioning granularity: StealIntervalInstr becomes instr/100,
// but at least 1.
func (c *Config) ScaleJobs(instr int64) {
	c.JobInstr = instr
	c.StealIntervalInstr = max(1, instr/100)
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		return fmt.Errorf("sim: core count %d out of range", c.Cores)
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L2.Owners < c.Cores {
		return fmt.Errorf("sim: L2 models %d owners for %d cores", c.L2.Owners, c.Cores)
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if len(c.Workload.Jobs) == 0 && len(c.Script) == 0 {
		return fmt.Errorf("sim: empty workload")
	}
	if c.JobInstr <= 0 || c.EpochCycles <= 0 || c.StealIntervalInstr <= 0 {
		return fmt.Errorf("sim: non-positive instruction/epoch parameters")
	}
	if c.ElasticSlack <= 0 || c.ElasticSlack > 1 {
		return fmt.Errorf("sim: elastic slack %v out of (0,1]", c.ElasticSlack)
	}
	if c.TwMargin < 1 {
		return fmt.Errorf("sim: tw margin %v must be >= 1", c.TwMargin)
	}
	if c.AcceptTarget <= 0 {
		return fmt.Errorf("sim: accept target must be positive")
	}
	if c.Policy == UCPPart && c.Engine != EngineTable {
		return fmt.Errorf("sim: UCP-Part is a table-engine baseline")
	}
	if err := c.Faults.Validate(c.Cores, c.L2.Ways); err != nil {
		return err
	}
	if c.Engine == EngineTrace {
		// The trace engine drives a physical way-partitioned array whose
		// geometry is fixed at construction; dark ways are a table-engine
		// abstraction (same precedent as UCP-Part above).
		for _, e := range c.Faults.Events {
			if e.Kind == fault.WayFault {
				return fmt.Errorf("sim: way-fault events require the table engine")
			}
		}
	}
	if c.RequestWays < 0 || c.RequestWays > c.L2.Ways {
		return fmt.Errorf("sim: request ways %d out of range [0,%d]", c.RequestWays, c.L2.Ways)
	}
	if c.DeadlineFactor < 0 {
		return fmt.Errorf("sim: negative deadline factor")
	}
	if c.FoldCompleted && c.RecordSeries {
		return fmt.Errorf("sim: FoldCompleted is incompatible with RecordSeries")
	}
	if err := ValidateNames(c.Scheduler, c.Allocator, c.Admission, c.Controller, ""); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.CtrlIntervalCycles < 0 {
		return fmt.Errorf("sim: negative controller interval")
	}
	for _, j := range c.Workload.Jobs {
		if _, ok := workload.ByName(j.Benchmark); !ok {
			return fmt.Errorf("sim: unknown benchmark %q", j.Benchmark)
		}
	}
	for i, sj := range c.Script {
		if _, ok := workload.ByName(sj.Template.Benchmark); !ok {
			return fmt.Errorf("sim: script entry %d: unknown benchmark %q", i, sj.Template.Benchmark)
		}
		if sj.Arrival < 0 || sj.DeadlineFactor < 0 || sj.Instr < 0 {
			return fmt.Errorf("sim: script entry %d: negative timing", i)
		}
		if i > 0 && sj.Arrival < c.Script[i-1].Arrival {
			return fmt.Errorf("sim: script entries must be in arrival order (entry %d)", i)
		}
	}
	return nil
}

// ModeForHint maps a workload mode hint to the actual execution mode
// under this policy (Table 2). EqualPart has no execution modes; its
// jobs nominally report Strict but bypass admission control entirely.
func (c Config) ModeForHint(h workload.ModeHint) qos.Mode {
	switch c.Policy {
	case Hybrid1:
		if h == workload.HintOpportunistic {
			return qos.Opportunistic()
		}
	case Hybrid2:
		switch h {
		case workload.HintElastic:
			return qos.Elastic(c.ElasticSlack)
		case workload.HintOpportunistic:
			return qos.Opportunistic()
		}
	}
	return qos.Strict()
}

package sim

import (
	"fmt"
	"sort"
	"strings"

	"cmpqos/internal/qos"
	"cmpqos/internal/stats"
	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// JobResult is the per-job outcome row of a run.
type JobResult struct {
	ID             int
	Benchmark      string
	Mode           qos.Mode
	DlClass        workload.DeadlineClass
	Arrival        int64
	Started        int64
	Completed      int64
	Deadline       int64
	WallClock      int64
	Met            bool
	AutoDowngraded bool
	SwitchedBack   bool
	Terminated     bool
	MissIncrease   float64 // Elastic jobs: cumulative miss growth from stealing
	CPIIncrease    float64 // Elastic jobs: CPI growth from stealing
	WaysStolen     int
}

// SeriesSample is one telemetry sample of the node's state.
type SeriesSample struct {
	Cycle        int64
	Running      int
	Waiting      int
	ReservedWays int
	OppJobs      int
	BusUtil      float64
}

// Fragmentation quantifies the two throughput-loss factors of §3.4/§7.1
// as fractions of the run's total resource-cycles.
type Fragmentation struct {
	// ExternalCores is the fraction of core-cycles with no job running
	// (e.g. All-Strict leaves two of four cores idle).
	ExternalCores float64
	// ExternalWays is the fraction of way-cycles neither reserved by a
	// running job nor scavenged by an Opportunistic one (e.g. the 2 of
	// 16 ways no 7-way request can use).
	ExternalWays float64
	// InternalWays is the fraction of way-cycles reserved by running
	// jobs beyond their useful working set — capacity only Elastic-mode
	// stealing can recover.
	InternalWays float64
}

// Report aggregates one run's results into the quantities the paper's
// figures plot.
type Report struct {
	Policy   Policy
	Engine   Engine
	Workload string

	Jobs []JobResult // the accepted jobs, in acceptance order
	// Lanes holds the Figure 7 lane of every job in Jobs that ran to
	// completion (terminated jobs draw none), in acceptance order.
	Lanes    []trace.Lane
	Rejected int
	// Terminated counts accepted jobs killed for exceeding their
	// reserved wall-clock budget (EnforceWallClock).
	Terminated int

	// TotalCycles is the wall-clock to complete all accepted jobs — the
	// throughput metric of Figure 5(b)/9(b) (lower is better; the
	// figures plot its inverse normalized to All-Strict).
	TotalCycles int64
	// DeadlineHitRate is over Strict/Elastic jobs for QoS policies (as
	// the paper computes it) and over all jobs for EqualPart.
	DeadlineHitRate float64
	// WallClock summaries per mode (Figure 6's candles).
	WallClockByMode map[string]*stats.Summary
	// Elastic-job averages (Figure 8a).
	ElasticMissIncrease float64
	ElasticCPIIncrease  float64
	// Opportunistic wall-clock summary (Figure 8b).
	OppWallClock stats.Summary
	// LACOccupancy is the modeled controller overhead fraction (§7.5).
	LACOccupancy float64
	LACProbes    int64

	// AcceptedJobs is the total accepted-job count. It equals len(Jobs)
	// except in streaming (FoldCompleted) mode, where Jobs is empty and
	// the scalar aggregates below are the run's only per-job record.
	AcceptedJobs int
	// DeadlineHits/DeadlineJobs are DeadlineHitRate's integer numerator
	// and denominator (policy-aware, as the paper counts).
	DeadlineHits int
	DeadlineJobs int
	// GuaranteedHits/GuaranteedJobs count deadline outcomes over
	// reserved-mode (non-Opportunistic) jobs regardless of policy — the
	// cluster layer's fleet hit-rate aggregates these integers so the
	// fleet rate is exact, not a float-average of per-node rates.
	GuaranteedHits int
	GuaranteedJobs int
	// CPUCycles is the summed cycles jobs actually executed — the fleet
	// utilization numerator, deterministic because it is an int64 sum.
	CPUCycles int64
	// AutoDowngradedJobs counts jobs the admission controller placed via
	// automatic mode downgrade (§5).
	AutoDowngradedJobs int

	// Series holds the per-epoch telemetry when RecordSeries is set.
	Series []SeriesSample
	// Frag is the run's resource-fragmentation accounting.
	Frag Fragmentation
	// Faults is the degradation record when a fault plan was configured
	// (Faulted reports whether anything actually fired).
	Faults FaultStats

	// EpochsStepped/EpochsSkipped split the run's epochs between the ones
	// the engine executed individually and the ones the event-horizon
	// fast-forward advanced in closed form (DESIGN §11). Their sum is the
	// run's epoch count, identical with the skip on or off.
	EpochsStepped int64
	EpochsSkipped int64

	// CtrlRetunes counts feedback-controller ticks (zero for the
	// open-loop "static" default). Identical with event-skip on or off:
	// ticks are QoS events the fast-forward never skips across.
	CtrlRetunes int64
}

// jobResult materializes one job's outcome row.
func (r *Runner) jobResult(j *Job) JobResult {
	res := JobResult{
		ID:             j.ID,
		Benchmark:      j.Profile.Name,
		Mode:           j.Mode,
		DlClass:        j.DlClass,
		Arrival:        j.Arrival,
		Started:        j.Started,
		Completed:      j.Completed,
		Deadline:       j.Deadline,
		WallClock:      j.WallClock(),
		Met:            j.MetDeadline() && j.State != StateTerminated,
		AutoDowngraded: j.AutoDowngraded,
		SwitchedBack:   j.switched,
		Terminated:     j.State == StateTerminated,
	}
	if j.Stealer != nil {
		res.MissIncrease = j.MissIncrease()
		res.CPIIncrease = j.CPIIncrease()
		res.WaysStolen = j.Stealer.Stolen()
	}
	return res
}

// jobFold accumulates per-job outcomes into the Report's aggregates.
// It is the single accumulation path for both report modes: the batch
// report feeds it in acceptance order at the end, the streaming
// (FoldCompleted) runner feeds it at each completion and discards the
// job, keeping memory independent of how many jobs the run admits.
type jobFold struct {
	jobs        int
	terminated  int
	autoDown    int
	totalCycles int64
	cpuCycles   int64
	hits, den   int // policy-aware (the paper's hit rate)
	gHits, gDen int // reserved-mode only (fleet aggregation)
	elasticMiss float64
	elasticCPI  float64
	elasticN    int
	// wcByMode is Report.WallClockByMode before report renders its keys:
	// one class per (mode, auto-downgraded) the run met — a handful,
	// scanned — so folding a job formats and hashes nothing.
	wcByMode    []wcClass
	oppWC       stats.Summary
	faultMisses int
}

type wcClass struct {
	mode     qos.Mode // zero when autoDown, and without admission control
	autoDown bool
	s        stats.Summary
}

// add folds one finished job's outcome.
func (f *jobFold) add(r *Runner, j *Job, res JobResult) {
	f.jobs++
	if res.Terminated {
		f.terminated++
	}
	if res.AutoDowngraded {
		f.autoDown++
	}
	if j.Stealer != nil {
		f.elasticMiss += res.MissIncrease
		f.elasticCPI += res.CPIIncrease
		f.elasticN++
	}
	if res.Completed > f.totalCycles {
		f.totalCycles = res.Completed
	}
	f.cpuCycles += j.ActualCycles
	mode, autoDown := res.Mode, false
	if r.cfg.Policy.noAdmission() {
		mode = qos.Mode{} // one class, named after the policy
	} else if res.AutoDowngraded {
		mode, autoDown = qos.Mode{}, true
	}
	c := 0
	for c < len(f.wcByMode) && (f.wcByMode[c].mode != mode || f.wcByMode[c].autoDown != autoDown) {
		c++
	}
	if c == len(f.wcByMode) {
		f.wcByMode = append(f.wcByMode, wcClass{mode: mode, autoDown: autoDown})
	}
	f.wcByMode[c].s.Add(float64(res.WallClock))
	if res.Mode.Kind == qos.KindOpportunistic {
		f.oppWC.Add(float64(res.WallClock))
	} else {
		f.gDen++
		if res.Met {
			f.gHits++
		}
	}
	// Deadline accounting: the paper computes hit rates over Strict
	// and Elastic jobs for QoS configurations, over everything for
	// EqualPart.
	if r.cfg.Policy.noAdmission() || res.Mode.Kind != qos.KindOpportunistic {
		f.den++
		if res.Met {
			f.hits++
		}
	}
	if !r.cfg.Faults.Empty() && !res.Met && missInFaultWindow(res, r.cfg.Faults) {
		f.faultMisses++
	}
}

// foldJob streams one finished job into the fold (FoldCompleted mode);
// advanceJob calls it at the completion/termination site.
func (r *Runner) foldJob(j *Job) {
	r.fold.add(r, j, r.jobResult(j))
}

// report assembles the Report after the run loop terminates.
func (r *Runner) report() *Report {
	rep := &Report{}
	f := r.reportInto(rep)
	rep.WallClockByMode = make(map[string]*stats.Summary, len(f.wcByMode))
	for _, c := range f.wcByMode {
		key := c.mode.String()
		if r.cfg.Policy.noAdmission() {
			key = r.cfg.Policy.String()
		} else if c.autoDown {
			key = "AutoDown"
		}
		if rep.WallClockByMode[key] == nil {
			rep.WallClockByMode[key] = &stats.Summary{}
		}
		rep.WallClockByMode[key].Merge(c.s) // a copy, unless two Elastic slacks print alike
	}
	return rep
}

// reportInto overwrites *rep with everything of the run's report but
// WallClockByMode and returns the fold it read, from which report
// renders that map; the fleet fold passes one Report for every node.
func (r *Runner) reportInto(rep *Report) *jobFold {
	*rep = Report{
		Policy:   r.cfg.Policy,
		Engine:   r.cfg.Engine,
		Workload: r.cfg.Workload.Name,
		Rejected: r.rejected,
	}
	f := r.fold
	if f == nil {
		// Batch mode: every accepted job is still in the slice; fold them
		// in acceptance order (the historical accumulation order) while
		// materializing the per-job rows and lanes.
		f = &jobFold{}
		rep.Jobs = make([]JobResult, 0, len(r.accepted))
		rep.Lanes = make([]trace.Lane, 0, len(r.accepted))
		for _, j := range r.accepted {
			res := r.jobResult(j)
			f.add(r, j, res)
			rep.Jobs = append(rep.Jobs, res)
			if j.State == StateDone {
				rep.Lanes = append(rep.Lanes, trace.Lane{
					JobID: j.ID, Start: j.firstStart, End: j.Completed, Deadline: j.Deadline,
					SwitchBack: j.switchedAt, Downgraded: j.AutoDowngraded, Met: res.Met,
				})
			}
		}
	}
	rep.AcceptedJobs = f.jobs
	rep.AutoDowngradedJobs = f.autoDown
	rep.Terminated = f.terminated
	rep.TotalCycles = f.totalCycles
	rep.CPUCycles = f.cpuCycles
	rep.OppWallClock = f.oppWC
	rep.DeadlineHits, rep.DeadlineJobs = f.hits, f.den
	rep.GuaranteedHits, rep.GuaranteedJobs = f.gHits, f.gDen
	if f.den > 0 {
		rep.DeadlineHitRate = float64(f.hits) / float64(f.den)
	}
	if f.elasticN > 0 {
		rep.ElasticMissIncrease = f.elasticMiss / float64(f.elasticN)
		rep.ElasticCPIIncrease = f.elasticCPI / float64(f.elasticN)
	}
	if r.lac != nil {
		rep.LACOccupancy = r.lac.Occupancy(rep.TotalCycles)
		rep.LACProbes, _, _ = r.lac.Counters()
	}
	rep.Faults = r.faultStats()
	rep.Faults.MissesInFaultWindows += f.faultMisses
	rep.EpochsStepped = r.nStepped
	rep.EpochsSkipped = r.nSkipped
	if r.ctrlState != nil {
		rep.CtrlRetunes = r.ctrlState.ticks
	}
	if r.seriesS != nil {
		rep.Series = r.seriesS.series
	}
	if r.epochIdx > 0 {
		den := float64(r.epochIdx)
		rep.Frag = Fragmentation{
			ExternalCores: r.frag.idleCores / (den * float64(r.cfg.Cores)),
			ExternalWays:  r.frag.idleWays / (den * float64(r.cfg.L2.Ways)),
			InternalWays:  r.frag.internal / (den * float64(r.cfg.L2.Ways)),
		}
	}
	return f
}

// Gantt renders the run as a Figure 7 style execution trace.
func (rep *Report) Gantt(width int) string {
	return trace.Gantt(rep.Lanes, width)
}

// Throughput returns jobs per gigacycle — a convenience inverse of
// TotalCycles.
func (rep *Report) Throughput() float64 {
	if rep.TotalCycles == 0 {
		return 0
	}
	return float64(rep.AcceptedJobs) / (float64(rep.TotalCycles) / 1e9)
}

// Speedup returns this report's throughput relative to a baseline run
// (Figure 5b/9b normalize to All-Strict).
func (rep *Report) Speedup(baseline *Report) float64 {
	if rep.TotalCycles == 0 {
		return 0
	}
	return float64(baseline.TotalCycles) / float64(rep.TotalCycles)
}

// Summary renders a human-readable digest of the run.
func (rep *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s (engine=%s)\n", rep.Policy, rep.Workload, rep.Engine)
	fmt.Fprintf(&b, "  accepted %d jobs (%d rejected probes), completed in %d cycles\n",
		rep.AcceptedJobs, rep.Rejected, rep.TotalCycles)
	fmt.Fprintf(&b, "  deadline hit rate %.0f%%\n", rep.DeadlineHitRate*100)
	keys := make([]string, 0, len(rep.WallClockByMode))
	for k := range rep.WallClockByMode {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := rep.WallClockByMode[k]
		fmt.Fprintf(&b, "  %-14s wall-clock avg %.0f [min %.0f, max %.0f] n=%d\n",
			k, s.Mean(), s.Min(), s.Max(), s.Count())
	}
	if rep.ElasticMissIncrease != 0 || rep.ElasticCPIIncrease != 0 {
		fmt.Fprintf(&b, "  elastic: miss +%.1f%%, CPI +%.1f%%\n",
			rep.ElasticMissIncrease*100, rep.ElasticCPIIncrease*100)
	}
	if rep.LACProbes > 0 {
		fmt.Fprintf(&b, "  LAC: %d probes, occupancy %.3f%%\n", rep.LACProbes, rep.LACOccupancy*100)
	}
	if f := rep.Faults; f.Faulted() {
		fmt.Fprintf(&b, "  faults: %d core, %d way, %d spike; evicted %d, readmitted %d, auto-downgraded %d, violated %d, ways shed %d\n",
			f.CoreFails, f.WayFaults, f.LatencySpikes,
			f.Evictions, f.Readmitted, f.AutoDowngrades, f.Violations, f.WaysShed)
	}
	return b.String()
}

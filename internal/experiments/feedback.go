package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/fault"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// FeedbackCell aggregates one (scenario, controller) pair over the
// scenario seeds: integer counters are summed so the rates below are
// exact, not float averages of per-seed rates.
type FeedbackCell struct {
	Scenario   string
	Controller string
	Accepted   int
	Rejected   int
	// Guaranteed deadline outcomes over reserved-mode jobs: a violation
	// is a reserved job that missed its deadline or was terminated for
	// overrunning its negotiated budget.
	GJobs   int
	GHits   int
	Retunes int64
	// Utilization terms: executed cycles over offered core-cycles.
	CPUCycles  int64
	CoreCycles int64
}

// Conversion is the RUM conversion rate: the fraction of submissions
// the admission pipeline turned into accepted reservations.
func (c FeedbackCell) Conversion() float64 {
	if n := c.Accepted + c.Rejected; n > 0 {
		return float64(c.Accepted) / float64(n)
	}
	return 0
}

// ViolationRate is the fraction of guaranteed (reserved-mode) jobs
// whose promise was broken.
func (c FeedbackCell) ViolationRate() float64 {
	if c.GJobs > 0 {
		return float64(c.GJobs-c.GHits) / float64(c.GJobs)
	}
	return 0
}

// Utilization is executed CPU cycles over offered core-cycles.
func (c FeedbackCell) Utilization() float64 {
	if c.CoreCycles > 0 {
		return float64(c.CPUCycles) / float64(c.CoreCycles)
	}
	return 0
}

// FeedbackResult compares the open-loop pipeline against the feedback
// controllers on the two situations a static allocation handles worst:
// a fault storm (dark ways and latency spikes slow jobs below their
// negotiated pace) and a bursty arrival tape (admission pressure
// arrives in waves instead of the Poisson average). The controllers
// close the loop over measured progress — granting idle ways to jobs
// running behind their promise and raising admission headroom while the
// node is struggling — so the claim under test is that the same storms
// produce fewer broken promises without giving up the conversion rate.
type FeedbackResult struct {
	Seeds int
	Cells []FeedbackCell
}

// feedbackControllers is the comparison axis: the open loop first, then
// the feedback controllers.
var feedbackControllers = []string{"static", "pid", "aimd"}

// feedbackBurstScript builds the bursty arrival tape: three waves of
// six Strict submissions each. Wave gaps scale with the configured job
// length so the tape keeps its shape at any -instr setting; within a
// wave jobs land one epoch apart (distinct arrivals, same admission
// window).
func feedbackBurstScript(cfg sim.Config) []sim.ScriptedJob {
	tpl := workload.JobTemplate{Benchmark: "bzip2"}
	gap := 2 * cfg.JobInstr // roughly two job lengths between waves
	var script []sim.ScriptedJob
	for wave := int64(0); wave < 3; wave++ {
		for j := int64(0); j < 6; j++ {
			script = append(script, sim.ScriptedJob{
				Template:       tpl,
				Arrival:        wave*gap + j*cfg.EpochCycles,
				DeadlineFactor: 4.0, // generous deadline: violations come from budget overruns, not queueing
			})
		}
	}
	return script
}

// Feedback runs the controller comparison: {fault storm, bursty tape} ×
// {static, pid, aimd}, three fault seeds per scenario, every controller
// at one (scenario, seed) point facing the identical fault plan and
// arrival tape. Policy is All-Strict so every promise is a hard one and
// the idle pool (the ways no 7-way request can use) is the controller's
// only lever — the comparison isolates the feedback loop, not a mode
// mix. Options.FaultSeed rebases the plan seeds. The grid is built
// scenario → seed → controller and folded in that exact order, so
// tables are byte-identical at any worker count.
func Feedback(o Options) (*FeedbackResult, error) {
	seedBase := o.FaultSeed
	if seedBase == 0 {
		seedBase = 1
	}
	const seeds = 3
	comp := workload.Single("bzip2")

	type scenario struct {
		name   string
		events float64 // fault events targeted over the run's horizon
		bursty bool
	}
	scens := []scenario{
		{"fault-storm", 10, false},
		{"bursty-arrivals", 6, true},
	}

	var cfgs []sim.Config
	for _, sc := range scens {
		for s := 0; s < seeds; s++ {
			// One plan per (scenario, seed), shared verbatim by every
			// controller: the comparison is between responses to the same
			// storm. The generation horizon tracks the run length (ten
			// jobs, two concurrent, ~2.2 cycles per instruction) so the
			// targeted event count actually lands inside the run at any
			// -instr scale, unlike the faults experiment's fixed window.
			base := o.config(sim.AllStrict, comp)
			horizon := 12 * base.JobInstr
			rate := sc.events / (float64(horizon) / 1e9)
			plan := fault.Generate(seedBase+int64(s), rate, horizon,
				base.Cores, base.L2.Ways)
			for _, ctrl := range feedbackControllers {
				cfg := o.config(sim.AllStrict, comp)
				cfg.Seed += int64(s)
				cfg.Faults = plan
				cfg.Controller = ctrl
				cfg.EnforceWallClock = true // budget overruns are violations, the promise under test
				// Six-way requests instead of the 7-way preset: two jobs
				// still run concurrently, but the idle pool the controller
				// may grant doubles (4 ways) and bzip2's miss curve is
				// steep at 6 ways, so a boost buys real catch-up speed.
				cfg.RequestWays = 6
				// A finer cadence than the 64-epoch default: short scaled
				// jobs live ~60 epochs, and a controller that samples a
				// job's progress twice cannot steer it.
				cfg.CtrlIntervalCycles = 8 * cfg.EpochCycles
				if sc.bursty {
					cfg.Script = feedbackBurstScript(cfg)
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}

	res := &FeedbackResult{Seeds: seeds}
	cells := map[string]*FeedbackCell{}
	key := func(scen, ctrl string) string { return scen + "|" + ctrl }
	k := 0
	for _, sc := range scens {
		for s := 0; s < seeds; s++ {
			for _, ctrl := range feedbackControllers {
				rep := reps[k]
				k++
				c, ok := cells[key(sc.name, ctrl)]
				if !ok {
					c = &FeedbackCell{Scenario: sc.name, Controller: ctrl}
					cells[key(sc.name, ctrl)] = c
				}
				c.Accepted += rep.AcceptedJobs
				c.Rejected += rep.Rejected
				c.GJobs += rep.GuaranteedJobs
				c.GHits += rep.GuaranteedHits
				c.Retunes += rep.CtrlRetunes
				c.CPUCycles += rep.CPUCycles
				c.CoreCycles += int64(cfgs[k-1].Cores) * rep.TotalCycles
			}
		}
	}
	for _, sc := range scens {
		for _, ctrl := range feedbackControllers {
			res.Cells = append(res.Cells, *cells[key(sc.name, ctrl)])
		}
	}
	return res, nil
}

// Cell returns the (scenario, controller) aggregate.
func (r *FeedbackResult) Cell(scen, ctrl string) (FeedbackCell, bool) {
	for _, c := range r.Cells {
		if c.Scenario == scen && c.Controller == ctrl {
			return c, true
		}
	}
	return FeedbackCell{}, false
}

// Render prints the controller comparison.
func (r *FeedbackResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Feedback — closed-loop SLO control vs the static pipeline (All-Strict bzip2, %d fault seeds per scenario)\n", r.Seeds)
	fmt.Fprintln(w, "every controller at one scenario faces the identical fault plan and arrival")
	fmt.Fprintln(w, "tape; counters are summed over the seeds")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "scenario          controller  accepted  rejected  conversion  violated  viol-rate  utilization  retunes")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-16s  %-10s  %8d  %8d  %9.0f%%  %8d  %8.1f%%  %10.1f%%  %7d\n",
			c.Scenario, c.Controller, c.Accepted, c.Rejected, c.Conversion()*100,
			c.GJobs-c.GHits, c.ViolationRate()*100, c.Utilization()*100, c.Retunes)
	}
	for _, scen := range []string{"fault-storm", "bursty-arrivals"} {
		st, ok1 := r.Cell(scen, "static")
		pid, ok2 := r.Cell(scen, "pid")
		if ok1 && ok2 {
			fmt.Fprintf(w, "\n%s: static broke %d promises, pid %d — measured-progress boosts from\n",
				scen, st.GJobs-st.GHits, pid.GJobs-pid.GHits)
			fmt.Fprintln(w, "the idle pool let lagging jobs catch their negotiated pace")
		}
	}
}

// Table exports the controller comparison.
func (r *FeedbackResult) Table() [][]string {
	rows := [][]string{{"scenario", "controller", "accepted", "rejected", "conversion",
		"violations", "violation_rate", "utilization", "retunes"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Scenario, c.Controller, fmt.Sprint(c.Accepted), fmt.Sprint(c.Rejected),
			ftoa(c.Conversion()), fmt.Sprint(c.GJobs - c.GHits), ftoa(c.ViolationRate()),
			ftoa(c.Utilization()), itoa(c.Retunes),
		})
	}
	return rows
}

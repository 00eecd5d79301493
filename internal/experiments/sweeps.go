package experiments

import (
	"fmt"
	"io"
	"strconv"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// SweepSlackRow is one Mix-1 slack point.
type SweepSlackRow struct {
	SlackPct     float64
	MissIncrease float64
	OppWallClock float64
	OppSpeedup   float64
	Total        int64
}

// SweepSlackResult extends Figure 8 to the favourable Mix-1 donor: with
// the cache-insensitive gobmk as the Elastic donor, even a small X
// releases most of its reservation, so the Opportunistic bzip2 recipients
// speed up far more than in the single-benchmark sweep — the quantitative
// basis of §7.4's "stealing should be applied selectively".
type SweepSlackResult struct {
	Rows         []SweepSlackRow
	BaselineWall float64
}

// SweepSlack runs the Mix-1 slack sweep; the stealing-disabled baseline
// and all slack points run concurrently.
func SweepSlack(o Options) (*SweepSlackResult, error) {
	mix := workload.Mix1()
	base := o.config(sim.Hybrid2, mix)
	base.DisableStealing = true
	xs := []float64{0.01, 0.02, 0.05, 0.10, 0.20}
	cfgs := []sim.Config{base}
	for _, x := range xs {
		cfg := o.config(sim.Hybrid2, mix)
		cfg.ElasticSlack = x
		cfgs = append(cfgs, cfg)
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("sweep-slack: %w", err)
	}
	res := &SweepSlackResult{BaselineWall: reps[0].OppWallClock.Mean()}
	for i, x := range xs {
		rep := reps[i+1]
		row := SweepSlackRow{
			SlackPct:     x * 100,
			MissIncrease: rep.ElasticMissIncrease,
			OppWallClock: rep.OppWallClock.Mean(),
			Total:        rep.TotalCycles,
		}
		if row.OppWallClock > 0 {
			row.OppSpeedup = res.BaselineWall / row.OppWallClock
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the sweep.
func (r *SweepSlackResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension — Mix-1 slack sweep (gobmk donates, bzip2 receives)")
	fmt.Fprintf(w, "stealing off: opportunistic wall-clock %.1f Mcyc\n", r.BaselineWall/1e6)
	fmt.Fprintln(w, "X(slack)   elastic-miss+   opp-wall(Mcyc)   opp-speedup   total(Mcyc)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%7.0f%%  %13.1f%%  %15.1f  %12.2f  %12s\n",
			row.SlackPct, row.MissIncrease*100, row.OppWallClock/1e6,
			row.OppSpeedup, mcycles(row.Total))
	}
}

// Table exports the sweep.
func (r *SweepSlackResult) Table() [][]string {
	rows := [][]string{{"slack_pct", "elastic_miss_increase", "opp_wall_cycles", "opp_speedup", "total_cycles"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			ftoa(row.SlackPct), ftoa(row.MissIncrease), ftoa(row.OppWallClock),
			ftoa(row.OppSpeedup), itoa(row.Total),
		})
	}
	return rows
}

// SweepPressureRow is one arrival-pressure point.
type SweepPressureRow struct {
	ProbesPerTw float64
	Submissions int
	HitRate     float64
	Total       int64
	Occupancy   float64
}

// SweepPressureResult probes the admission controller's robustness: the
// deadline guarantee must hold at any arrival pressure — overload shows
// up purely as rejected submissions, never as missed deadlines.
type SweepPressureResult struct {
	Rows []SweepPressureRow
}

// SweepPressure sweeps the Poisson probe rate over two orders of
// magnitude on the All-Strict bzip2 workload.
func SweepPressure(o Options) (*SweepPressureResult, error) {
	pressures := []float64{32, 128, 512, 2048}
	var cfgs []sim.Config
	for _, probes := range pressures {
		cfg := o.config(sim.AllStrict, workload.Single("bzip2"))
		cfg.ProbesPerTw = probes
		cfgs = append(cfgs, cfg)
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("sweep-pressure: %w", err)
	}
	res := &SweepPressureResult{}
	for i, probes := range pressures {
		rep := reps[i]
		res.Rows = append(res.Rows, SweepPressureRow{
			ProbesPerTw: probes,
			Submissions: rep.AcceptedJobs + rep.Rejected,
			HitRate:     rep.DeadlineHitRate,
			Total:       rep.TotalCycles,
			Occupancy:   rep.LACOccupancy,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *SweepPressureResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension — arrival-pressure sweep (All-Strict, bzip2)")
	fmt.Fprintln(w, "probes/tw   submissions   hit-rate   total(Mcyc)   LAC-occupancy")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%9.0f  %12d  %8s  %12s  %13.3f%%\n",
			row.ProbesPerTw, row.Submissions, pct(row.HitRate),
			mcycles(row.Total), row.Occupancy*100)
	}
	fmt.Fprintln(w, "\noverload is absorbed entirely by rejections; accepted jobs keep their")
	fmt.Fprintln(w, "guarantee at every pressure — the property admission control buys.")
}

// Table exports the sweep.
func (r *SweepPressureResult) Table() [][]string {
	rows := [][]string{{"probes_per_tw", "submissions", "hit_rate", "total_cycles", "lac_occupancy"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			ftoa(row.ProbesPerTw), strconv.Itoa(row.Submissions), ftoa(row.HitRate),
			itoa(row.Total), ftoa(row.Occupancy),
		})
	}
	return rows
}

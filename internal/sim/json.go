package sim

import (
	"encoding/json"
	"io"
	"sort"
)

// reportJSON is the marshal-friendly projection of a Report for tooling
// (dashboards, notebooks); the live Report holds stateful types that do
// not serialize meaningfully.
type reportJSON struct {
	Policy     string         `json:"policy"`
	Engine     string         `json:"engine"`
	Workload   string         `json:"workload"`
	Accepted   int            `json:"accepted"`
	Rejected   int            `json:"rejected_probes"`
	Terminated int            `json:"terminated"`
	Total      int64          `json:"total_cycles"`
	HitRate    float64        `json:"deadline_hit_rate"`
	Elastic    elasticJSON    `json:"elastic"`
	LAC        lacJSON        `json:"lac"`
	Frag       Fragmentation  `json:"fragmentation"`
	WallClock  []wallJSON     `json:"wall_clock_by_mode"`
	Jobs       []jobJSON      `json:"jobs"`
	Series     []SeriesSample `json:"series,omitempty"`
	Faults     *faultJSON     `json:"faults,omitempty"`
}

// faultJSON is emitted only when a fault actually fired, keeping
// fault-free reports byte-identical to pre-fault builds.
type faultJSON struct {
	CoreFails      int `json:"core_fails"`
	CoreRecovers   int `json:"core_recovers"`
	WayFaults      int `json:"way_faults"`
	WayRecovers    int `json:"way_recovers"`
	LatencySpikes  int `json:"latency_spikes"`
	Evictions      int `json:"evictions"`
	Readmitted     int `json:"readmitted"`
	AutoDowngrades int `json:"auto_downgrades"`
	Violations     int `json:"violations"`
	WaysShed       int `json:"ways_shed"`
	FaultMisses    int `json:"misses_in_fault_windows"`
}

type elasticJSON struct {
	MissIncrease float64 `json:"miss_increase"`
	CPIIncrease  float64 `json:"cpi_increase"`
}

type lacJSON struct {
	Probes    int64   `json:"probes"`
	Occupancy float64 `json:"occupancy"`
}

type wallJSON struct {
	Mode string  `json:"mode"`
	N    int64   `json:"n"`
	Avg  float64 `json:"avg_cycles"`
	Min  float64 `json:"min_cycles"`
	Max  float64 `json:"max_cycles"`
}

type jobJSON struct {
	ID             int     `json:"id"`
	Benchmark      string  `json:"benchmark"`
	Mode           string  `json:"mode"`
	Deadline       int64   `json:"deadline"`
	Arrival        int64   `json:"arrival"`
	Started        int64   `json:"started"`
	Completed      int64   `json:"completed"`
	WallClock      int64   `json:"wall_clock"`
	Met            bool    `json:"deadline_met"`
	AutoDowngraded bool    `json:"auto_downgraded"`
	SwitchedBack   bool    `json:"switched_back"`
	Terminated     bool    `json:"terminated"`
	MissIncrease   float64 `json:"miss_increase,omitempty"`
	WaysStolen     int     `json:"ways_stolen,omitempty"`
}

// WriteJSON serializes the report for external tooling.
func (rep *Report) WriteJSON(w io.Writer) error {
	out := reportJSON{
		Policy:     rep.Policy.String(),
		Engine:     rep.Engine.String(),
		Workload:   rep.Workload,
		Accepted:   rep.AcceptedJobs,
		Rejected:   rep.Rejected,
		Terminated: rep.Terminated,
		Total:      rep.TotalCycles,
		HitRate:    rep.DeadlineHitRate,
		Elastic: elasticJSON{
			MissIncrease: rep.ElasticMissIncrease,
			CPIIncrease:  rep.ElasticCPIIncrease,
		},
		LAC:    lacJSON{Probes: rep.LACProbes, Occupancy: rep.LACOccupancy},
		Frag:   rep.Frag,
		Series: rep.Series,
	}
	if f := rep.Faults; f.Faulted() {
		out.Faults = &faultJSON{
			CoreFails:      f.CoreFails,
			CoreRecovers:   f.CoreRecovers,
			WayFaults:      f.WayFaults,
			WayRecovers:    f.WayRecovers,
			LatencySpikes:  f.LatencySpikes,
			Evictions:      f.Evictions,
			Readmitted:     f.Readmitted,
			AutoDowngrades: f.AutoDowngrades,
			Violations:     f.Violations,
			WaysShed:       f.WaysShed,
			FaultMisses:    f.MissesInFaultWindows,
		}
	}
	modes := make([]string, 0, len(rep.WallClockByMode))
	for m := range rep.WallClockByMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		s := rep.WallClockByMode[m]
		out.WallClock = append(out.WallClock, wallJSON{
			Mode: m, N: s.Count(), Avg: s.Mean(), Min: s.Min(), Max: s.Max(),
		})
	}
	for _, j := range rep.Jobs {
		out.Jobs = append(out.Jobs, jobJSON{
			ID:             j.ID,
			Benchmark:      j.Benchmark,
			Mode:           j.Mode.String(),
			Deadline:       j.Deadline,
			Arrival:        j.Arrival,
			Started:        j.Started,
			Completed:      j.Completed,
			WallClock:      j.WallClock,
			Met:            j.Met,
			AutoDowngraded: j.AutoDowngraded,
			SwitchedBack:   j.SwitchedBack,
			Terminated:     j.Terminated,
			MissIncrease:   j.MissIncrease,
			WaysStolen:     j.WaysStolen,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

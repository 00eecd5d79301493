package experiments

import (
	"fmt"
	"io"
	"strconv"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// GeometryRow is one L2-configuration point.
type GeometryRow struct {
	SizeMB  int
	Ways    int
	ReqWays int
	HitRate float64
	Speedup float64 // Hybrid-2 vs All-Strict at this geometry
	Concur  int     // how many medium requests fit simultaneously
}

// GeometryResult is the hardware-sensitivity sweep: the framework's
// guarantees are geometry-independent (the admission test adapts to
// whatever capacity exists), while the throughput recovered by the
// hybrid modes depends on how many requests fit side by side — the
// external-fragmentation ratio the geometry induces. Requests scale with
// the cache (7/16 of the ways, the paper's medium preset ratio).
type GeometryResult struct {
	Rows []GeometryRow
}

// Geometry sweeps 1 MB/8-way, 2 MB/16-way (the paper), and 4 MB/32-way
// L2s on the bzip2 workload.
func Geometry(o Options) (*GeometryResult, error) {
	res := &GeometryResult{}
	type geo struct {
		sizeMB, ways int
	}
	geos := []geo{{1, 8}, {2, 16}, {4, 32}}
	var cfgs []sim.Config
	for _, g := range geos {
		for _, p := range []sim.Policy{sim.AllStrict, sim.Hybrid2} {
			cfg := o.config(p, workload.Single("bzip2"))
			cfg.L2.SizeBytes = g.sizeMB << 20
			cfg.L2.Ways = g.ways
			cfg.RequestWays = g.ways * 7 / 16
			cfgs = append(cfgs, cfg)
		}
	}
	reps, err := o.runAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("geometry: %w", err)
	}
	for i, g := range geos {
		base, hy := reps[2*i], reps[2*i+1]
		reqWays := cfgs[2*i+1].RequestWays
		if base.DeadlineHitRate != 1.0 || hy.DeadlineHitRate != 1.0 {
			return nil, fmt.Errorf("geometry %dMB: guarantee broken (%v/%v)",
				g.sizeMB, base.DeadlineHitRate, hy.DeadlineHitRate)
		}
		res.Rows = append(res.Rows, GeometryRow{
			SizeMB:  g.sizeMB,
			Ways:    g.ways,
			ReqWays: reqWays,
			HitRate: hy.DeadlineHitRate,
			Speedup: hy.Speedup(base),
			Concur:  g.ways / reqWays,
		})
	}
	return res, nil
}

// Render prints the sweep.
func (r *GeometryResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Extension — L2 geometry sensitivity (bzip2, requests at 7/16 of the ways)")
	fmt.Fprintln(w, "L2-size  ways  request  concurrent-fits  hit-rate  hybrid2-speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5dMB  %4d  %7d  %15d  %8s  %15.2f\n",
			row.SizeMB, row.Ways, row.ReqWays, row.Concur, pct(row.HitRate), row.Speedup)
	}
	fmt.Fprintln(w, "\nthe guarantee holds at every geometry; the recoverable throughput tracks")
	fmt.Fprintln(w, "how many requests fit side by side (external fragmentation).")
}

// Table exports the sweep.
func (r *GeometryResult) Table() [][]string {
	rows := [][]string{{"l2_mb", "ways", "request_ways", "concurrent_fits", "hit_rate", "hybrid2_speedup"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			strconv.Itoa(row.SizeMB), strconv.Itoa(row.Ways), strconv.Itoa(row.ReqWays),
			strconv.Itoa(row.Concur), ftoa(row.HitRate), ftoa(row.Speedup),
		})
	}
	return rows
}

package experiments

import (
	"fmt"
	"io"

	"cmpqos/internal/cache"
	"cmpqos/internal/cpu"
	"cmpqos/internal/mem"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// Fig1Row is one point of Figure 1: n instances of bzip2 with the L2
// divided equally among them.
type Fig1Row struct {
	Instances int
	WaysEach  float64
	IPC       float64
	Target    float64
	Meets     bool
}

// Fig1Result reproduces Figure 1: the motivating observation that equal
// partitioning meets the 2/3-of-alone IPC target for two instances but
// not for three or four — because nothing checks capacity and nothing
// rejects jobs.
type Fig1Result struct {
	Benchmark string
	AloneIPC  float64
	Rows      []Fig1Row
}

// Fig1 measures the figure. The table engine evaluates the calibrated
// curve directly; the trace engine runs the synthetic stream of each
// instance through a real equally-partitioned cache.
func Fig1(o Options) (*Fig1Result, error) {
	p := workload.MustByName("bzip2")
	l2 := cache.PaperL2()

	ipcAt := func(n int) float64 {
		ways := l2.Ways / n
		if o.Engine == sim.EngineTrace {
			mr := traceSharedMissRatio(p, l2, n, o.Seed)
			return cpu.IPC(p.CPIL1Inf, p.L2APA, p.L2APA*mr, mem.BaseCycles)
		}
		return p.IPC(ways)
	}
	alone := ipcAt(1)
	res := &Fig1Result{Benchmark: p.Name, AloneIPC: alone}
	target := alone * 2 / 3
	for n := 1; n <= 4; n++ {
		ipc := ipcAt(n)
		res.Rows = append(res.Rows, Fig1Row{
			Instances: n,
			WaysEach:  float64(l2.Ways) / float64(n),
			IPC:       ipc,
			Target:    target,
			Meets:     ipc >= target,
		})
	}
	return res, nil
}

// traceSharedMissRatio measures one instance's miss ratio when n
// instances run on an equally way-partitioned L2.
func traceSharedMissRatio(p workload.Profile, l2 cache.Config, n int, seed int64) float64 {
	c := cache.NewPartitioned(l2)
	streams := make([]*workload.Stream, n)
	per := l2.Ways / n
	for i := 0; i < n; i++ {
		c.SetTarget(i, per)
		c.SetClass(i, cache.ClassReserved)
		streams[i] = p.NewStream(seed+42, i)
	}
	const perJob = 250_000
	for k := 0; k < perJob; k++ {
		for i := 0; i < n; i++ {
			c.Access(i, streams[i].Next())
		}
	}
	c.ResetStats()
	for k := 0; k < perJob; k++ {
		for i := 0; i < n; i++ {
			c.Access(i, streams[i].Next())
		}
	}
	return c.MissRatio(0)
}

// Render prints the figure's series.
func (r *Fig1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 1 — IPC of %s instances on a 4-core CMP, L2 divided equally\n", r.Benchmark)
	fmt.Fprintf(w, "QoS target: IPC >= %.3f (2/3 of alone IPC %.3f)\n", r.Rows[0].Target, r.AloneIPC)
	fmt.Fprintln(w, "instances  ways-each  IPC     target-met")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%9d  %9.1f  %.3f   %v\n", row.Instances, row.WaysEach, row.IPC, row.Meets)
	}
}

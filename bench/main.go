// Command bench is the repository's benchmark: four long, deterministic
// workloads over the admit path (qosd over loopback HTTP) and the
// simulate path (single-node and fleet simulations), one closed-loop
// client, fixed op counts per second of budget, self-checked outputs,
// and a separate traced run that prices every layer from outside.
// README.md explains the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Op rates: ops per second of --seconds. They are constants so the work
// done — and with it every exact count — is the same on every commit;
// they were sized on the 2-vCPU reference box so a measured phase lasts
// about --seconds.
const (
	steadyOpsPerSec   = 13_000
	fleetOpsPerSec    = 2_400
	simNodeOpsPerSec  = 72
	simFleetOpsPerSec = 12
	steadyNodes       = 4
	fleetNodes        = 750
	simFleetNodes     = 500
	defaultSeconds    = 12
)

var workloadNames = []string{"admit-steady", "admit-fleet", "sim-node", "sim-fleet"}

// sizes is everything that scales a run. Production runs vary only
// seconds; the smoke test also shrinks the fleets.
type sizes struct {
	seconds       float64
	fleetNodes    int
	simFleetNodes int
}

// opsFor rounds rate×seconds up to a whole number of slices.
func opsFor(rate int, seconds float64) int {
	per := int(float64(rate)*seconds/slices + 0.999999)
	return max(per, 1) * slices
}

// outDir is where state directories and span files go. The benchmark
// writes nowhere else.
func outDir() (string, error) {
	dir := "out"
	if _, err := os.Stat("bench"); err == nil {
		dir = filepath.Join("bench", "out") // started from the repository root
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runWorkload runs one untraced workload.
func runWorkload(name string, seed int64, sz sizes, out string) (outcome, error) {
	switch name {
	case "admit-steady":
		return runAdmit(admitSpec{name, steadyNodes, opsFor(steadyOpsPerSec, sz.seconds)}, seed, stateDir(out, name))
	case "admit-fleet":
		return runAdmit(admitSpec{name, sz.fleetNodes, opsFor(fleetOpsPerSec, sz.seconds)}, seed, stateDir(out, name))
	case "sim-node":
		return runSim(func() simOp { return nodePass(seed) }, opsFor(simNodeOpsPerSec, sz.seconds)), nil
	case "sim-fleet":
		return runSim(func() simOp { return fleetRun(fleetConfig(seed, sz.simFleetNodes)) }, opsFor(simFleetOpsPerSec, sz.seconds)), nil
	}
	return outcome{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func stateDir(out, name string) string {
	return filepath.Join(out, fmt.Sprintf("state-%s-%d", name, os.Getpid()))
}

// gated is one end-to-end metric: its unit and the share of the
// parent's median it may worsen by. All of them are better when lower.
type gated struct {
	unit  string
	bound float64
}

// endToEnd and perLayerUnits name every metric the program prints: the
// first set with --trace 0, the second with --trace 1. BENCHMARK.json
// lists the same names, units and bounds; bench_test.go holds them equal.
var endToEnd = map[string]gated{
	"setup_s":         {"s", 0.25},
	"alloc_kb_per_op": {"kB", 0.02},
	"live_heap_mb":    {"MB", 0.05},
}

func endToEndUnits() map[string]string {
	units := map[string]string{}
	for name, g := range endToEnd {
		units[name] = g.unit
	}
	return units
}

var perLayerUnits = map[string]string{
	// The workload's own op, from the traced run's untraced reference phase.
	"op_p50_us":           "us",
	"op_p90_us":           "us",
	"op_p99_us":           "us",
	"op_p999_us":          "us",
	"op_max_us":           "us",
	"ops_per_s":           "1/s",
	"accept_frac":         "ratio",
	"decision_digest":     "hash",
	"failed_frac":         "ratio",
	"trace.overhead_frac": "ratio",
	// Admit ledger, outermost level first.
	"load.transport_us":           "us",
	"server.http_us":              "us",
	"server.handler_us":           "us",
	"server.submit_us":            "us",
	"server.reject_us":            "us",
	"server.cancel_us":            "us",
	"qos.gac.submit_us":           "us",
	"qos.lac.admit_ns":            "ns",
	"qos.lac.negotiate_us":        "us",
	"qos.timeline.earliestfit_ns": "ns",
	"qos.timeline.churn_ns":       "ns",
	"qos.timeline.churn_100k_ns":  "ns",
	"qos.wal.append_ns":           "ns",
	"qos.wal.append_sync_us":      "us",
	"qos.wal.read_ns_per_rec":     "ns",
	"server.recover_ms":           "ms",
	"server.snapshot_persist_ms":  "ms",
	"server.snapshot_us_per_op":   "us",
	"admit.self.transport_us":     "us",
	"admit.self.handler_us":       "us",
	"admit.self.decide_us":        "us",
	"admit.self.wal_us":           "us",
	"admit.self.snapshot_us":      "us",
	"admit.unattributed_frac":     "ratio",
	"admit.open_r2000.p99_us":     "us",
	"admit.open_r5000.p99_us":     "us",
	"admit.open.late_p99_us":      "us",
	// Simulator layers.
	"workload.tape_us":               "us",
	"sim.new_us":                     "us",
	"sim.run_paper_us":               "us",
	"sim.run_dense_us":               "us",
	"sim.run_pid_us":                 "us",
	"sim.run_faults_us":              "us",
	"sim.paper.skipped_frac":         "ratio",
	"sim.dense.skipped_frac":         "ratio",
	"sim.dense.ns_per_stepped_epoch": "ns",
	"sim.minstr_per_host_s":          "Minstr/s",
	"sim.cluster.new_ms":             "ms",
	"sim.cluster.run_ms":             "ms",
	"sim.cluster.us_per_arrival":     "us",
	"sim.cluster.rejected_probes":    "count",
	"sim.cluster.skipped_frac":       "ratio",
	// Layers no end-to-end workload covers.
	"sim.run_trace_ms":          "ms",
	"cache.access_ns":           "ns",
	"cache.shadow_observe_ns":   "ns",
	"cache.misscurve_ms":        "ms",
	"experiments.cold_sweep_ms": "ms",
	// The host, read first when two runs disagree.
	"host.calib_ms":    "ms",
	"host.peak_rss_mb": "MB",
	"host.steal_frac":  "ratio",
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// diagnostics is the line before the result line: what a run measured
// beyond the end-to-end metrics. --selfcheck reads it back.
type diagnostics struct {
	Workload  string             `json:"workload"`
	Ungated   map[string]float64 `json:"ungated"`
	LiveDrift float64            `json:"live_drift"`
	ThirdsGap float64            `json:"thirds_gap"`
	SliceIQR  float64            `json:"slice_iqr"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func printMetrics(workload string, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-14s %-32s %16.4f %s\n", workload, name, m[name], units[name])
	}
}

// emit prints the result line: every metric of units, and nothing else.
func emit(attempted, failed int, m map[string]float64, units map[string]string) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for name, unit := range units {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("metric %q was not measured", name)
		}
		res.Metrics[name] = metricJSON{v, unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run() error {
	// One scheduler thread for client, daemon and GC. On the 2-vCPU
	// reference VM a second P turns every request into two cross-vCPU
	// wake-ups whose cost is the hypervisor's, not the code's: in the same
	// minutes p90 read 137–144 µs with two Ps and 92–96 µs with one.
	runtime.GOMAXPROCS(1)

	workload := flag.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "measured-phase budget; op counts are a fixed rate times this")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the span file")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two runs against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]")
	}
	out, err := outDir()
	if err != nil {
		return err
	}
	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	sz := sizes{*seconds, fleetNodes, simFleetNodes}
	if *selfcheck {
		return selfCheck(names, *seed, *seconds)
	}
	for _, name := range names {
		var o outcome
		var m map[string]float64
		units := endToEndUnits()
		if *trace == 1 {
			units = perLayerUnits
			m, o, err = runTraced(name, *seed, sz, out)
		} else {
			o, err = runWorkload(name, *seed, sz, out)
			m = o.e2e
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, note := range o.notes {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", name, note)
		}
		fmt.Printf("%-14s ops=%d slices=%d live_drift=%+.3f thirds_gap=%+.3f slice_ms=%v\n",
			name, o.phase.ops(), slices, o.liveDrift, o.phase.thirdsGap(), o.phase.sliceMillis())
		if *trace == 0 {
			printMetrics(name, o.tail, perLayerUnits)
		}
		printMetrics(name, m, units)
		diag, err := json.Marshal(diagnostics{name, o.tail, o.liveDrift, o.phase.thirdsGap(), o.phase.sliceIQR()})
		if err != nil {
			return err
		}
		fmt.Println(string(diag))
		if err := emit(o.attempted, o.failed, m, units); err != nil {
			return err
		}
		if o.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops or checks failed", name, o.failed, o.attempted)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

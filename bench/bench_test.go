package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// smoke is every op count divided by a thousand on fleets a fiftieth
// the size: seconds, not minutes.
var smoke = sizes{seconds: 0.02, fleetNodes: 15, simFleetNodes: 10}

type benchmarkJSON struct {
	Paths    []string `json:"paths"`
	Workload []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatches holds the program's metric tables equal to
// BENCHMARK.json: same workloads, same names, units, directions, bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workload) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workload), len(workloadNames))
	}
	for i, w := range b.Workload {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for _, m := range b.EndToEnd {
		g, ok := endToEnd[m.Name]
		if !ok {
			t.Errorf("end-to-end metric %q is not printed by the program", m.Name)
			continue
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
		if g.unit != m.Unit || g.bound != m.Bound || m.Better != "lower" {
			t.Errorf("%s: BENCHMARK.json {%s %s %v}, program %+v", m.Name, m.Unit, m.Better, m.Bound, g)
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayerUnits))
	}
	for _, m := range b.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %q: BENCHMARK.json unit %q, program %q (listed: %v)", m.Name, m.Unit, unit, ok)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
	}
}

// TestWorkloadsSmoke runs all four workloads end to end at smoke size:
// every end-to-end metric is measured and nothing else is, nothing
// fails, and the exact counts repeat for a seed and move with it.
func TestWorkloadsSmoke(t *testing.T) {
	t.Parallel()
	out := t.TempDir()
	for _, name := range workloadNames {
		run := func(seed int64) outcome {
			o, err := runWorkload(name, seed, smoke, out)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s seed %d: %d of %d failed: %v", name, seed, o.failed, o.attempted, o.notes)
			}
			return o
		}
		a, again, other := run(1), run(1), run(2)
		if len(a.e2e) != len(endToEnd) {
			t.Errorf("%s measured %d end-to-end metrics, want %d", name, len(a.e2e), len(endToEnd))
		}
		for metric := range endToEnd {
			if v, ok := a.e2e[metric]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v (measured: %v), want a positive value", name, metric, v, ok)
			}
		}
		for _, count := range []string{"accept_frac", "decision_digest"} {
			if a.tail[count] != again.tail[count] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", name, count, a.tail[count], again.tail[count])
			}
		}
		if a.tail["decision_digest"] == other.tail["decision_digest"] {
			t.Errorf("%s: decision digest %v is the same for seeds 1 and 2", name, a.tail["decision_digest"])
		}
	}
}

// TestTracedSmoke runs one traced run and checks it measures exactly the
// per-layer list, writes the span file, and that the simulator's exact
// counts repeat for a seed and move with it.
func TestTracedSmoke(t *testing.T) {
	t.Parallel()
	out := t.TempDir()
	m, o, err := runTraced("admit-fleet", 1, smoke, out)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d of %d failed: %v", o.failed, o.attempted, o.notes)
	}
	for name := range perLayerUnits {
		if v, ok := m[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %q = %v (measured: %v), want a finite value", name, v, ok)
		}
	}
	for name := range m {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("traced run measured %q, which BENCHMARK.json does not list", name)
		}
	}
	if m["failed_frac"] != 0 {
		t.Errorf("failed_frac = %v", m["failed_frac"])
	}
	data, err := os.ReadFile(out + "/trace-admit-fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(spans), err)
	}

	counts := func(seed int64) [3]float64 {
		m, err := traceSim(newTracer(), depthFor("sim-fleet", smoke), smoke.simFleetNodes, seed)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{m["sim.cluster.rejected_probes"], m["sim.cluster.skipped_frac"], m["sim.paper.skipped_frac"]}
	}
	a, again, other := counts(1), counts(1), counts(2)
	if a != again {
		t.Errorf("fleet rejections and skipped fractions differ between two runs of seed 1: %v vs %v", a, again)
	}
	if a == other {
		t.Errorf("fleet rejections and skipped fractions %v are the same for seeds 1 and 2", a)
	}
}

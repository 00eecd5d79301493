package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig3", "fig4", "table1", "curves", "fig5", "fig6", "fig7",
		"fig8", "fig9", "lac", "related", "cluster", "frag",
		"sweep-slack", "sweep-pressure", "ablation-interval",
		"engines", "seeds", "faults", "geometry", "policies",
		"ablation-partition", "ablation-sampling", "feedback"}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Error("unknown experiment found")
	}
	if n := len(Registry()); n != len(want) {
		t.Errorf("registry has %d entries, want %d", n, len(want))
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := Fig1(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	// The paper's motivating shape: targets met for 1-2 instances,
	// missed for 3-4.
	for _, row := range r.Rows {
		if want := row.Instances <= 2; row.Meets != want {
			t.Errorf("n=%d meets=%v, want %v", row.Instances, row.Meets, want)
		}
	}
	// IPC strictly decreases with instance count.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].IPC >= r.Rows[i-1].IPC {
			t.Errorf("IPC not decreasing at n=%d", r.Rows[i].Instances)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scenarios) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(r.Scenarios))
	}
	a, b, c := r.Scenarios[0], r.Scenarios[1], r.Scenarios[2]
	if b.TotalCycles >= a.TotalCycles {
		t.Errorf("(b) manual downgrade %d should beat (a) all-strict %d", b.TotalCycles, a.TotalCycles)
	}
	if c.TotalCycles >= a.TotalCycles {
		t.Errorf("(c) stealing %d should beat (a) %d", c.TotalCycles, a.TotalCycles)
	}
	if a.HitRate != 1.0 || b.HitRate != 1.0 || c.HitRate != 1.0 {
		t.Error("reserved jobs must meet the 1.5T deadlines in every scenario")
	}
}

func TestFig4GroupsSeparated(t *testing.T) {
	r, err := Fig4(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(r.Rows))
	}
	// Rows are sorted descending by 7→1 sensitivity; groups must come
	// out in order 1s, then 2s, then 3s.
	last := r.Rows[0].Group
	for _, row := range r.Rows {
		if row.Group < last {
			t.Errorf("group ordering violated at %s", row.Benchmark)
		}
		last = row.Group
		if row.D7to1 < row.D7to4 {
			t.Errorf("%s: 7→1 sensitivity below 7→4", row.Benchmark)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r, err := Table1(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		pp := r.Paper[row.Benchmark]
		if d := (row.MissRate - pp[0]) / pp[0]; d > 0.05 || d < -0.05 {
			t.Errorf("%s miss rate %v deviates from paper %v", row.Benchmark, row.MissRate, pp[0])
		}
		if d := (row.MPI - pp[1]) / pp[1]; d > 0.05 || d < -0.05 {
			t.Errorf("%s MPI %v deviates from paper %v", row.Benchmark, row.MPI, pp[1])
		}
	}
}

// TestCurvesTraceIsTheFig4Probe: the curves experiment's trace rows
// are the probe Fig4's trace branch reads, and its text is the same
// under either engine — it prints both curves whatever -engine says.
func TestCurvesTraceIsTheFig4Probe(t *testing.T) {
	r := Curves(paperOpts())
	if len(r.Rows) != len(workload.Profiles()) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(workload.Profiles()))
	}
	for _, row := range r.Rows {
		p := workload.MustByName(row.Benchmark)
		probe := p.ProbeCurve(paperL2Alone(), 250_000, 250_000)
		if len(row.Trace) != 16 || len(row.Calibrated) != 16 {
			t.Fatalf("%s: %d trace and %d calibrated points, want 16 each", row.Benchmark, len(row.Trace), len(row.Calibrated))
		}
		for i := range row.Trace {
			if row.Trace[i] != probe.At(i+1) || row.Calibrated[i] != p.MissRatio(i+1) {
				t.Errorf("%s at %d ways: trace %v calibrated %v, want %v and %v",
					row.Benchmark, i+1, row.Trace[i], row.Calibrated[i], probe.At(i+1), p.MissRatio(i+1))
			}
		}
	}
	var table, trace bytes.Buffer
	Curves(Options{Engine: sim.EngineTable}).Render(&table)
	Curves(Options{Engine: sim.EngineTrace}).Render(&trace)
	if table.String() != trace.String() {
		t.Errorf("curves text differs by engine:\n%s\nvs\n%s", table.String(), trace.String())
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 15 {
		t.Fatalf("cells = %d, want 15", len(r.Cells))
	}
	for _, bench := range []string{"gobmk", "hmmer", "bzip2"} {
		for _, pol := range []sim.Policy{sim.AllStrict, sim.Hybrid1, sim.Hybrid2, sim.AllStrictAutoDown} {
			c, ok := r.Cell(bench, pol)
			if !ok || c.HitRate != 1.0 {
				t.Errorf("%s/%v hit rate = %v, want 100%%", bench, pol, c.HitRate)
			}
		}
		ep, _ := r.Cell(bench, sim.EqualPart)
		if ep.HitRate > 0.7 {
			t.Errorf("%s EqualPart hit rate = %v, want well below 1", bench, ep.HitRate)
		}
		h1, _ := r.Cell(bench, sim.Hybrid1)
		if h1.Normalized <= 1.05 {
			t.Errorf("%s Hybrid-1 speedup = %v, want clearly > 1", bench, h1.Normalized)
		}
		ad, _ := r.Cell(bench, sim.AllStrictAutoDown)
		if ad.Normalized <= 1.0 {
			t.Errorf("%s AutoDown speedup = %v, want > 1", bench, ad.Normalized)
		}
	}
	// The paper's sensitivity gradient: the less cache-sensitive the
	// benchmark, the larger EqualPart's advantage.
	g, _ := r.Cell("gobmk", sim.EqualPart)
	h, _ := r.Cell("hmmer", sim.EqualPart)
	b, _ := r.Cell("bzip2", sim.EqualPart)
	if !(g.Normalized > h.Normalized && h.Normalized > b.Normalized) {
		t.Errorf("EqualPart gradient broken: gobmk %v, hmmer %v, bzip2 %v",
			g.Normalized, h.Normalized, b.Normalized)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	find := func(pol sim.Policy, mode string) *Fig6Row {
		for i := range r.Rows {
			if r.Rows[i].Policy == pol && r.Rows[i].Mode == mode {
				return &r.Rows[i]
			}
		}
		return nil
	}
	strict := find(sim.AllStrict, "Strict")
	opp := find(sim.Hybrid1, "Opportunistic")
	auto := find(sim.AllStrictAutoDown, "AutoDown")
	equal := find(sim.EqualPart, "EqualPart")
	if strict == nil || opp == nil || auto == nil || equal == nil {
		t.Fatal("missing expected rows")
	}
	// Figure 6's ordering: Strict short and constant; Opportunistic and
	// EqualPart long and variable; AutoDown in between with variation.
	if opp.Wall.Mean() <= strict.Wall.Mean()*1.5 {
		t.Error("opportunistic wall-clock should far exceed strict")
	}
	if auto.Wall.Mean() <= strict.Wall.Mean() {
		t.Error("auto-downgraded wall-clock should exceed strict")
	}
	spread := func(r *Fig6Row) float64 {
		return (r.Wall.Max() - r.Wall.Min()) / r.Wall.Mean()
	}
	if spread(strict) > 0.05 {
		t.Errorf("strict spread = %v, want nearly constant", spread(strict))
	}
	if spread(auto) < spread(strict) {
		t.Error("autodown spread should exceed strict spread")
	}
	if spread(equal) < 0.05 {
		t.Errorf("equalpart spread = %v, want large", spread(equal))
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.AutoTotal >= r.StrictTotal {
		t.Errorf("AutoDown %d should beat All-Strict %d", r.AutoTotal, r.StrictTotal)
	}
	if r.StrictHitRate != 1.0 || r.AutoHitRate != 1.0 {
		t.Error("both configurations must meet all deadlines")
	}
	if r.Downgraded == 0 {
		t.Error("no jobs downgraded")
	}
	if r.SwitchedBack > r.Downgraded {
		t.Error("more switch-backs than downgrades")
	}
	if !strings.Contains(r.AutoGantt, "#") || !strings.Contains(r.AutoGantt, "^") {
		t.Error("autodown gantt missing downgrade markers")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(r.Rows))
	}
	for i, row := range r.Rows {
		// (a) the miss increase tracks X: at the paper's 200 M
		// instructions it lands within [0.9·X, 1.25·X] on every row.
		x := row.SlackPct / 100
		if row.MissIncrease > x*1.25 {
			t.Errorf("X=%v%%: miss increase %v above 1.25·X", row.SlackPct, row.MissIncrease)
		}
		if row.MissIncrease < x*0.9 {
			t.Errorf("X=%v%%: miss increase %v below 0.9·X — loop not tracking", row.SlackPct, row.MissIncrease)
		}
		// CPI increase stays below the miss increase (§4.2).
		if row.CPIIncrease >= row.MissIncrease {
			t.Errorf("X=%v%%: CPI increase not below miss increase", row.SlackPct)
		}
		// Monotone in X.
		if i > 0 && row.MissIncrease < r.Rows[i-1].MissIncrease {
			t.Errorf("miss increase not monotone at X=%v%%", row.SlackPct)
		}
	}
	// (b) large slack speeds opportunistic jobs at least as much as
	// small slack.
	if r.Rows[5].OppSpeedup < r.Rows[0].OppSpeedup {
		t.Errorf("opp speedup at X=20%% (%v) below X=1%% (%v)",
			r.Rows[5].OppSpeedup, r.Rows[0].OppSpeedup)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 10 {
		t.Fatalf("cells = %d, want 10", len(r.Cells))
	}
	for _, mix := range []string{"Mix-1", "Mix-2"} {
		for _, pol := range []sim.Policy{sim.AllStrict, sim.Hybrid1, sim.Hybrid2, sim.AllStrictAutoDown} {
			c, _ := r.Cell(mix, pol)
			if c.HitRate != 1.0 {
				t.Errorf("%s/%v hit rate %v, want 1", mix, pol, c.HitRate)
			}
		}
		ep, _ := r.Cell(mix, sim.EqualPart)
		if ep.HitRate > 0.7 {
			t.Errorf("%s EqualPart hit rate %v, want low", mix, ep.HitRate)
		}
	}
	// §7.4: the stealing benefit (Hybrid-2 over Hybrid-1) is larger for
	// Mix-1 than for Mix-2.
	h11, _ := r.Cell("Mix-1", sim.Hybrid1)
	h21, _ := r.Cell("Mix-1", sim.Hybrid2)
	h12, _ := r.Cell("Mix-2", sim.Hybrid1)
	h22, _ := r.Cell("Mix-2", sim.Hybrid2)
	gain1 := h21.Normalized / h11.Normalized
	gain2 := h22.Normalized / h12.Normalized
	if gain1 <= gain2 {
		t.Errorf("stealing benefit Mix-1 (%v) should exceed Mix-2 (%v)", gain1, gain2)
	}
}

func TestLACUnderOnePercent(t *testing.T) {
	r, err := LAC(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// The paper's <1% claim holds at every arrival pressure swept,
		// the 4× point (2048 probes) included.
		if row.Occupancy >= 0.01 {
			t.Errorf("probes=%v: occupancy %v, want < 1%%", row.ProbesPerTw, row.Occupancy)
		}
	}
	// Occupancy grows with probe pressure.
	if !(r.Rows[0].Occupancy < r.Rows[2].Occupancy) {
		t.Error("occupancy should grow with arrival pressure")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("cache-level ablations are slow")
	}
	// The paper-scale render's own results: each ablation is computed
	// once at workers 1 and once at workers 4 per test binary.
	a := paperAblations()
	p := a.partition
	if p.GlobalCoV <= p.PerSetCoV {
		t.Errorf("global CoV %v should exceed per-set CoV %v (§4.1)", p.GlobalCoV, p.PerSetCoV)
	}
	s := a.sampling
	if s.Full <= 0 {
		t.Fatal("full-coverage excess ratio should be positive")
	}
	for _, row := range s.Rows {
		if row.Error > 0.25 || row.Error < -0.25 {
			t.Errorf("every=%d: sampling error %v too large", row.Every, row.Error)
		}
	}
}

func TestClusterScaling(t *testing.T) {
	r, err := Cluster(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fleet) != 3 {
		t.Fatalf("rows = %d, want 3", len(r.Fleet))
	}
	for _, row := range r.Fleet {
		if row.Accepted != row.Jobs {
			t.Errorf("%d nodes: accepted %d of %d", row.Nodes, row.Accepted, row.Jobs)
		}
		if row.HitRate != 1.0 {
			t.Errorf("%d nodes: hit rate %v, want 1.0", row.Nodes, row.HitRate)
		}
	}
	// Throughput scales: 4 nodes deliver at least 2.5x the jobs/Gcyc of 1.
	if scale := r.Fleet[2].JobsPerGcycle / r.Fleet[0].JobsPerGcycle; scale < 2.5 {
		t.Errorf("scaling 1→4 nodes = %v, want >= 2.5", scale)
	}
}

func TestFragDecomposition(t *testing.T) {
	r, err := Frag(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	by := map[sim.Policy]sim.Fragmentation{}
	for _, row := range r.Rows {
		by[row.Policy] = row.Frag
	}
	strict := by[sim.AllStrict]
	h1 := by[sim.Hybrid1]
	ep := by[sim.EqualPart]
	// All-Strict idles cores; the hybrids absorb most of that.
	if strict.ExternalCores < 0.25 {
		t.Errorf("All-Strict external core fragmentation = %v, want substantial", strict.ExternalCores)
	}
	if h1.ExternalCores > strict.ExternalCores*0.75 {
		t.Errorf("Hybrid-1 external cores %v should be clearly below All-Strict %v",
			h1.ExternalCores, strict.ExternalCores)
	}
	// gobmk's 7-way reservations are almost entirely internal waste.
	if strict.InternalWays < 0.2 {
		t.Errorf("All-Strict internal fragmentation = %v, want large for gobmk", strict.InternalWays)
	}
	// EqualPart reserves nothing, so it has no internal fragmentation by
	// definition and little external waste beyond the completion tail.
	if ep.InternalWays != 0 {
		t.Errorf("EqualPart internal fragmentation = %v, want 0", ep.InternalWays)
	}
	if ep.ExternalCores > 0.25 || ep.ExternalWays > 0.25 {
		t.Errorf("EqualPart external fragmentation = %+v, want small", ep)
	}
}

func TestRelatedComparison(t *testing.T) {
	r, err := Related(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 policies", len(r.Rows))
	}
	byName := map[string]RelatedRow{}
	for _, row := range r.Rows {
		byName[row.Policy] = row
	}
	eq := byName["EqualPart (VPC-like)"]
	ucp := byName["UCP (Qureshi)"]
	fair := byName["Fair (Kim)"]
	qos := byName["QoS reservation (this paper)"]
	// Each optimizer improves its own objective over EqualPart.
	if ucp.TotalMPI > eq.TotalMPI+1e-12 {
		t.Errorf("UCP total MPI %v not better than equal %v", ucp.TotalMPI, eq.TotalMPI)
	}
	if fair.Unfairness > eq.Unfairness+1e-9 {
		t.Errorf("Fair unfairness %v not better than equal %v", fair.Unfairness, eq.Unfairness)
	}
	// But only the reservation honors the QoS request (§2's argument).
	if ucp.GuaranteeMet || fair.GuaranteeMet || eq.GuaranteeMet {
		t.Error("an optimizer unexpectedly satisfied the 7-way guarantee")
	}
	if !qos.GuaranteeMet {
		t.Error("the reservation must satisfy the guarantee by construction")
	}
}

func TestSweepSlackMix1(t *testing.T) {
	r, err := SweepSlack(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// With the insensitive donor, already X=5% must produce a clear
	// opportunistic speedup — far beyond the single-benchmark sweep.
	at5 := r.Rows[2]
	if at5.OppSpeedup < 1.05 {
		t.Errorf("Mix-1 opp speedup at X=5%% = %v, want > 1.05", at5.OppSpeedup)
	}
	// The donor's own miss increase stays bounded by X.
	for _, row := range r.Rows {
		if row.MissIncrease > row.SlackPct/100*1.6 {
			t.Errorf("X=%v%%: donor miss increase %v above bound", row.SlackPct, row.MissIncrease)
		}
	}
}

func TestSweepPressureGuaranteeHolds(t *testing.T) {
	r, err := SweepPressure(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.HitRate != 1.0 {
			t.Errorf("probes=%v: hit rate %v — overload must never break the guarantee",
				row.ProbesPerTw, row.HitRate)
		}
	}
	// More pressure, more submissions burned for the same ten slots.
	if !(r.Rows[0].Submissions < r.Rows[len(r.Rows)-1].Submissions) {
		t.Error("submissions should grow with pressure")
	}
}

func TestGeometrySweep(t *testing.T) {
	r, err := Geometry(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.HitRate != 1.0 {
			t.Errorf("%dMB: hit %v — the guarantee must be geometry-independent", row.SizeMB, row.HitRate)
		}
		if row.Speedup < 1.0 {
			t.Errorf("%dMB: hybrid-2 speedup %v below 1", row.SizeMB, row.Speedup)
		}
		if row.Concur != 2 {
			t.Errorf("%dMB: %d concurrent fits; the 7/16 ratio always packs 2", row.SizeMB, row.Concur)
		}
	}
}

func TestSeedsRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the grid five times")
	}
	r, err := Seeds(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 15 {
		t.Fatalf("cells = %d, want 15", len(r.Cells))
	}
	for _, bench := range []string{"gobmk", "hmmer", "bzip2"} {
		for _, pol := range []sim.Policy{sim.AllStrict, sim.Hybrid1, sim.Hybrid2, sim.AllStrictAutoDown} {
			c := seedsCell(r, bench, pol)
			// The guarantee must be seed-invariant: 100% with zero sd.
			if c.HitRate.Mean() != 1.0 || c.HitRate.StdDev() != 0 {
				t.Errorf("%s/%v: hit %v ± %v, want exactly 1.0", bench, pol,
					c.HitRate.Mean(), c.HitRate.StdDev())
			}
		}
		h1 := seedsCell(r, bench, sim.Hybrid1)
		if h1.Speedup.Mean() <= 1.05 {
			t.Errorf("%s Hybrid-1 mean speedup %v", bench, h1.Speedup.Mean())
		}
		ep := seedsCell(r, bench, sim.EqualPart)
		if ep.HitRate.Mean() > 0.7 {
			t.Errorf("%s EqualPart mean hit %v, want low", bench, ep.HitRate.Mean())
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trace engine five times")
	}
	r, err := Engines(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.Policy != sim.EqualPart {
			if row.TableHit != 1.0 || row.TraceHit != 1.0 {
				t.Errorf("%v: hit rates %v/%v, want 1.0 under both engines",
					row.Policy, row.TableHit, row.TraceHit)
			}
		} else {
			if row.TableHit > 0.7 || row.TraceHit > 0.7 {
				t.Errorf("EqualPart hit rates %v/%v, want low under both engines",
					row.TableHit, row.TraceHit)
			}
		}
		// Both engines agree that every optimization is at least as fast
		// as All-Strict.
		if row.TableSpeedup < 0.99 || row.TraceSpeedup < 0.99 {
			t.Errorf("%v: speedups %v/%v below 1", row.Policy, row.TableSpeedup, row.TraceSpeedup)
		}
	}
}

func TestIntervalAblation(t *testing.T) {
	r, err := Interval(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Coarser intervals (later rows) overshoot the X bound at least as
	// much as the finest one.
	finest, coarsest := r.Rows[0], r.Rows[len(r.Rows)-1]
	if coarsest.Overshoot < finest.Overshoot {
		t.Errorf("coarse interval overshoot %v below fine %v", coarsest.Overshoot, finest.Overshoot)
	}
	// Even the coarsest interval keeps the excess within a small
	// multiple of the bound — the rollback still catches it.
	if coarsest.Overshoot > 4 {
		t.Errorf("overshoot %vx unreasonably large", coarsest.Overshoot)
	}
}

func TestOptionsConfig(t *testing.T) {
	o := Options{Engine: sim.EngineTrace, JobInstr: 5_000_000, Seed: 9}
	cfg := o.config(sim.Hybrid2, workload.Single("bzip2"))
	if cfg.Engine != sim.EngineTrace || cfg.JobInstr != 5_000_000 || cfg.Seed != 9 {
		t.Errorf("options not applied: %+v", cfg)
	}
	if cfg.StealIntervalInstr != 50_000 {
		t.Errorf("steal interval = %d, want JobInstr/100", cfg.StealIntervalInstr)
	}
}

// TestCSVExports holds the paper-scale render's CSV exports to
// testdata/csv_golden.txt byte for byte, and drives the registry's CSV
// adaptor: an export for exactly the entries whose result implements
// Tabular, each a header and rows of its width. The set is spelled out
// so that a result losing its Table method is loud.
func TestCSVExports(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the full paper-scale render")
	}
	renders := paperRendering(t)
	tabular := map[string]bool{}
	for _, name := range []string{"fig1", "fig4", "table1", "curves", "fig5", "fig6", "fig8", "fig9", "lac",
		"cluster", "related", "frag", "sweep-slack", "sweep-pressure", "ablation-interval",
		"engines", "seeds", "faults", "feedback", "geometry", "policies"} {
		tabular[name] = true
	}
	for _, r := range Registry() {
		name := r.Name
		if !tabular[name] {
			want := fmt.Sprintf("experiments: %q has no CSV export", name)
			if _, err := CSVResult(name, paperOpts()); err == nil || err.Error() != want {
				t.Errorf("%s: CSVResult error = %v, want %s", name, err, want)
			}
			continue
		}
		delete(tabular, name)
		// The reader fails on a row whose width differs from the header's.
		rows, err := csv.NewReader(bytes.NewReader(renders[name].csv)).ReadAll()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", name, len(rows))
		}
	}
	for name := range tabular {
		t.Errorf("%s: expected a CSV export, not in the registry", name)
	}
	if _, err := CSVResult("nonesuch", paperOpts()); err == nil || err.Error() != `experiments: "nonesuch" has no CSV export` {
		t.Errorf("CSVResult(nonesuch) error = %v", err)
	}
	checkCSVGolden(t, renders)
}

// TestFeedbackControllerBeatsStatic is the closed-loop smoke: under the
// same fault storms and arrival bursts, the pid controller must never
// break more promises than the open loop it retunes — and it must have
// actually retuned, while the static rows stay untouched.
func TestFeedbackControllerBeatsStatic(t *testing.T) {
	r, err := Feedback(paperOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, scen := range []string{"fault-storm", "bursty-arrivals"} {
		static, ok := r.Cell(scen, "static")
		if !ok {
			t.Fatalf("%s: missing static cell", scen)
		}
		pid, ok := r.Cell(scen, "pid")
		if !ok {
			t.Fatalf("%s: missing pid cell", scen)
		}
		if static.Retunes != 0 {
			t.Errorf("%s: static pipeline reports %d retunes", scen, static.Retunes)
		}
		if pid.Retunes == 0 {
			t.Errorf("%s: pid controller never retuned", scen)
		}
		if static.GJobs == 0 || static.GJobs != pid.GJobs {
			t.Errorf("%s: guaranteed-job denominators diverge: static %d, pid %d",
				scen, static.GJobs, pid.GJobs)
		}
		if pv, sv := pid.ViolationRate(), static.ViolationRate(); pv > sv {
			t.Errorf("%s: pid violation rate %.3f exceeds static %.3f", scen, pv, sv)
		}
	}
}

// seedsCell returns r's (workload, policy) aggregate, zero when absent.
func seedsCell(r *SeedsResult, w string, p sim.Policy) SeedsCell {
	for _, c := range r.Cells {
		if c.Workload == w && c.Policy == p {
			return c
		}
	}
	return SeedsCell{}
}

package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cmpqos/internal/sim"
)

// faultOpts runs the faults experiment at full paper scale with
// parallel workers, so `go test -race` sweeps the whole fan-out path of
// the experiment.
func faultOpts() Options {
	return Options{Workers: 4}
}

// TestFaultsGracefulDegradation pins the experiment's robustness claim:
// at the highest injected fault rate, the Hybrid mixes (with Elastic and
// Opportunistic jobs to shed or run unreserved) violate no more
// reservations than the all-Strict policy, and the degradation machinery
// demonstrably engages (evictions occur, some evictees are readmitted).
func TestFaultsGracefulDegradation(t *testing.T) {
	r, err := Faults(faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 16 {
		t.Fatalf("cells = %d, want 16 (4 rates x 4 policies)", len(r.Cells))
	}
	worst := r.Cells[len(r.Cells)-1].Rate
	strict, ok1 := r.Cell(worst, sim.AllStrict)
	h1, ok2 := r.Cell(worst, sim.Hybrid1)
	h2, ok3 := r.Cell(worst, sim.Hybrid2)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing cells at the worst rate")
	}
	if strict.Violations == 0 {
		t.Fatalf("all-Strict violated nothing at rate %g; the sweep does not stress the framework", worst)
	}
	if h1.Violations > strict.Violations {
		t.Errorf("Hybrid-1 violated %d > all-Strict %d at rate %g", h1.Violations, strict.Violations, worst)
	}
	if h2.Violations > strict.Violations {
		t.Errorf("Hybrid-2 violated %d > all-Strict %d at rate %g", h2.Violations, strict.Violations, worst)
	}
	totalReadmit := 0
	for _, c := range r.Cells {
		if c.Rate == 0 {
			if c.Events != 0 || c.Evictions != 0 || c.Violations != 0 {
				t.Errorf("rate-0 cell %s has fault activity: %+v", c.Policy, c)
			}
			continue
		}
		if c.Evictions != c.Readmitted+c.Violations {
			t.Errorf("%s rate %g: evictions %d != readmitted %d + violations %d",
				c.Policy, c.Rate, c.Evictions, c.Readmitted, c.Violations)
		}
		totalReadmit += c.Readmitted
	}
	if totalReadmit == 0 {
		t.Error("no evicted job was ever readmitted across the sweep")
	}
}

// TestFaultsRenderAndTable smoke-checks the render and CSV surfaces and
// the single-rate narrowing knob.
func TestFaultsRenderAndTable(t *testing.T) {
	o := faultOpts()
	o.FaultRate = 4
	r, err := Faults(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (one rate x 4 policies)", len(r.Cells))
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"rate/Gcyc", "All-Strict", "Hybrid-2", "violated"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	rows := r.Table()
	if len(rows) != 5 {
		t.Fatalf("table rows = %d, want 5 (header + 4 cells)", len(rows))
	}
	if rows[0][0] != "rate_per_gcycle" {
		t.Errorf("header = %v", rows[0])
	}
}

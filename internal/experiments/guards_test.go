package experiments

// The paths only an edge of the input reaches: cancellation, lookups
// that miss, empty denominators, a scale too small for the paper's
// guarantee.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"cmpqos/internal/sim"
)

// TestEveryExperimentStopsWhenCanceled: an experiment under a canceled
// context returns the cancellation, whatever it runs — simulations, a
// fleet, or cache-model measurements — and the analytic ones, which run
// nothing cancellable, still render.
func TestEveryExperimentStopsWhenCanceled(t *testing.T) {
	analytic := map[string]bool{"fig1": true, "fig4": true, "table1": true, "curves": true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range Registry() {
		err := r.Run(Options{Context: ctx}, io.Discard)
		switch {
		case analytic[r.Name] && err != nil:
			t.Errorf("%s: %v, want a render", r.Name, err)
		case !analytic[r.Name] && !errors.Is(err, context.Canceled):
			t.Errorf("%s: %v, want %v", r.Name, err, context.Canceled)
		}
	}
}

// TestClusterRefusesAnUnknownDispatcher: the cluster experiment passes a
// dispatcher name it was given to the fleet, which refuses it.
func TestClusterRefusesAnUnknownDispatcher(t *testing.T) {
	if _, err := Cluster(Options{Dispatch: "bogus"}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("Cluster with dispatcher bogus = %v, want an error naming it", err)
	}
}

// TestGeometryReportsABrokenGuarantee: at a thousand instructions a job
// is shorter than the engine's epoch, and the geometry sweep says the
// guarantee broke instead of printing a table. The cause is the epoch,
// not the tw fit or the deadline class (DESIGN §8.5): the engine starts
// a reserved job at the first epoch boundary at or after its
// reservation's start, up to one epoch (250,000 cycles) late, and the
// run ends that much past the reservation the LAC granted, while the
// tw margin covers 5% of tw. At a thousand instructions tw is ≈3,000
// cycles; at a million (qostrace -policy allstrict -workload bzip2
// -instr 1000000) it is 3,071,250 and an epoch is 8% of it, so six of
// the ten jobs overrun their reservations and the three whose
// deadlines lie less than the overrun past their reservation's end
// miss.
func TestGeometryReportsABrokenGuarantee(t *testing.T) {
	if _, err := Geometry(Options{JobInstr: 1000}); err == nil || !strings.Contains(err.Error(), "guarantee broken") {
		t.Errorf("Geometry at 1000 instructions = %v, want a broken-guarantee error", err)
	}
}

// TestLookupsAndRatesOfNothing: a cell lookup that misses says so, and a
// rate over nothing is 0, not NaN.
func TestLookupsAndRatesOfNothing(t *testing.T) {
	if _, ok := (&Fig5Result{}).Cell("bzip2", sim.AllStrict); ok {
		t.Error("Fig5Result.Cell found a cell in an empty result")
	}
	if _, ok := (&Fig9Result{}).Cell("Mix-1", sim.AllStrict); ok {
		t.Error("Fig9Result.Cell found a cell in an empty result")
	}
	if _, ok := (&FaultsResult{}).Cell(0.5, sim.AllStrict); ok {
		t.Error("FaultsResult.Cell found a cell in an empty result")
	}
	if _, ok := (&FeedbackResult{}).Cell("storm", "pid"); ok {
		t.Error("FeedbackResult.Cell found a cell in an empty result")
	}
	var c FeedbackCell
	if c.Conversion() != 0 || c.ViolationRate() != 0 || c.Utilization() != 0 {
		t.Errorf("rates of an empty cell = %v, %v, %v; want 0", c.Conversion(), c.ViolationRate(), c.Utilization())
	}
	if got := safeDiv(1, 0); got != 0 {
		t.Errorf("safeDiv(1, 0) = %v, want 0", got)
	}
}

// TestAblationPartitionRendersTheRatio: when per-set partitioning does
// vary, the render gives the two schemes' ratio.
func TestAblationPartitionRendersTheRatio(t *testing.T) {
	var b bytes.Buffer
	(&AblationPartitionResult{Runs: 8, PerSetCoV: 0.01, GlobalCoV: 0.05}).Render(&b)
	if !strings.Contains(b.String(), "global/per-set variability ratio: 5.0× —") {
		t.Errorf("render without the ratio:\n%s", b.String())
	}
}

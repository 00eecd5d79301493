package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"cmpqos/internal/trace"
	"cmpqos/internal/workload"
)

// pricedDeadline bounds one run of TestPricedEpochMatchesRepricing: a
// run takes milliseconds, and a reuse that lets a job overrun its
// remaining work never completes it, so such a mutant fails here
// instead of at the test binary's timeout.
const pricedDeadline = 10 * time.Second

// countingModel counts what a run prices from scratch: the job-epochs
// advanceJob advances through the model, and the per-job deltas
// epochDeltas prices. A job-epoch served from a held pricing, or a
// pricing reused, reaches neither.
type countingModel struct {
	model
	advances, deltas *int
}

func (m countingModel) advance(j *Job, instr int64) (int64, int64) {
	*m.advances++
	return m.model.advance(j, instr)
}

func (m countingModel) steadyDeltas(j *Job, instr int64) (int64, int64, int64, bool) {
	*m.deltas++
	return m.model.steadyDeltas(j, instr)
}

// pricingCounts sums countingModel's counts over runs.
type pricingCounts struct{ advances, deltas int }

// instrument sets r's reuse switch, counts its pricing into c and
// attaches an event log.
func instrument(r *Runner, reprice bool, c *pricingCounts) *EventLog {
	r.repriceEveryEpoch = reprice
	r.model = countingModel{model: r.model, advances: &c.advances, deltas: &c.deltas}
	log := &EventLog{}
	r.AddSink(log)
	return log
}

// pricedNode is what TestPricedEpochMatchesRepricing compares of one
// node: its report as JSON, its event log, its LAC's probe, admit and
// reject counters, and its epoch counters.
type pricedNode struct {
	json   []byte
	events []trace.Event
	lac    [3]int64
	epochs [2]int64
}

func pricedNodeOf(t *testing.T, r *Runner, rep *Report, log *EventLog) pricedNode {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := pricedNode{json: buf.Bytes(), events: log.Events(), epochs: [2]int64{rep.EpochsStepped, rep.EpochsSkipped}}
	if r.lac != nil {
		out.lac[0], out.lac[1], out.lac[2] = r.lac.Counters()
	}
	return out
}

// comparePriced fails the test where a node priced once differs from
// the same node repricing every epoch.
func comparePriced(t *testing.T, name string, got, want pricedNode) {
	t.Helper()
	if !bytes.Equal(got.json, want.json) {
		t.Errorf("%s: report differs from repricing every epoch\npriced once: %s\nrepricing:   %s", name, got.json, want.json)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("%s: event log differs from repricing every epoch (%d events vs %d)", name, len(got.events), len(want.events))
	}
	if got.lac != want.lac {
		t.Errorf("%s: LAC {probes, admits, rejects} = %v, repricing every epoch %v", name, got.lac, want.lac)
	}
	if got.epochs != want.epochs {
		t.Errorf("%s: {stepped, skipped} epochs = %v, repricing every epoch %v", name, got.epochs, want.epochs)
	}
}

// phasedBzip2 is ten bzip2 jobs in two phases, the miss rate doubling
// halfway.
func phasedBzip2() workload.Composition {
	c := workload.Composition{Name: "phased-bzip2"}
	for i := 0; i < 10; i++ {
		c.Jobs = append(c.Jobs, workload.JobTemplate{
			Benchmark: "bzip2",
			Phases:    []workload.Phase{{Until: 0.5, MPIScale: 0.5}, {Until: 1.0, MPIScale: 1.0}},
		})
	}
	return c
}

// TestPricedEpochMatchesRepricing holds the pricing record (DESIGN
// §11.7) — a window proof reusing the deltas the last proof priced for
// the same plan at the same bus utilization, and a stepped epoch
// applying them — to pricing every epoch from scratch, over engineGrid's
// single-node configurations, every policy on a phased workload, and
// the lock-step oracle's fleets (faults, controllers, AutoDown, every
// dispatcher, the trace engine) plus a phased one: reports,
// event logs, LAC counters and epoch counters must be equal, for a
// fleet on every node and in the fleet report. Each run has a deadline.
// The record must demonstrably serve both kinds of reuse: fewer
// job-epochs advanced and fewer deltas priced than the reference.
func TestPricedEpochMatchesRepricing(t *testing.T) {
	var got, want pricingCounts
	runNode := func(cfg Config, reprice bool, c *pricingCounts) pricedNode {
		t.Helper()
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := instrument(r, reprice, c)
		ctx, cancel := context.WithTimeout(context.Background(), pricedDeadline)
		defer cancel()
		rep, err := r.RunContext(ctx)
		if err != nil {
			t.Fatalf("repricing=%v: %v", reprice, err)
		}
		return pricedNodeOf(t, r, rep, log)
	}
	runs := 0
	check := func(name string, cfg Config) {
		runs++
		comparePriced(t, name, runNode(cfg, false, &got), runNode(cfg, true, &want))
	}
	engineGrid(check)
	// engineGrid's workloads have no phases, and a phased job is the one
	// input a plan's pricing must not be recorded for.
	for _, p := range Policies() {
		for _, dense := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := DefaultConfig(p, phasedBzip2())
				cfg.Seed = seed
				if dense {
					cfg.JobInstr = 10_000_000
					cfg.StealIntervalInstr = 100_000
				}
				check(fmt.Sprintf("phased/%s/dense=%v/seed=%d", p, dense, seed), cfg)
			}
		}
	}

	runFleet := func(cfg ClusterConfig, reprice bool, c *pricingCounts) (*ClusterReport, []pricedNode) {
		t.Helper()
		cr := newTestCluster(t, cfg)
		logs := make([]*EventLog, len(cr.nodes))
		for i, n := range cr.nodes {
			logs[i] = instrument(n, reprice, c)
		}
		ctx, cancel := context.WithTimeout(context.Background(), pricedDeadline)
		defer cancel()
		rep, err := cr.RunParallel(ctx, 1)
		if err != nil {
			t.Fatalf("repricing=%v: %v", reprice, err)
		}
		nodes := make([]pricedNode, len(cr.nodes))
		for i, n := range cr.nodes {
			nodes[i] = pricedNodeOf(t, n, n.report(), logs[i])
		}
		return rep, nodes
	}
	phased := clusterSkipCfg()
	phased.Node.Workload = phasedBzip2()
	for _, tc := range append(oracleFleets(), fleetCase{name: "phased", cfg: phased}) {
		runs++
		fleet, nodes := runFleet(tc.cfg, false, &got)
		wantFleet, wantNodes := runFleet(tc.cfg, true, &want)
		if !reflect.DeepEqual(fleet, wantFleet) {
			t.Errorf("%s: fleet report differs from repricing every epoch\npriced once: %+v\nrepricing:   %+v", tc.name, fleet, wantFleet)
		}
		for i := range nodes {
			comparePriced(t, fmt.Sprintf("%s/node %d", tc.name, i), nodes[i], wantNodes[i])
			if t.Failed() {
				break
			}
		}
	}
	t.Logf("%d configurations: job-epochs advanced %d (repricing %d), job deltas priced %d (repricing %d)",
		runs, got.advances, want.advances, got.deltas, want.deltas)
	if got.advances >= want.advances || got.deltas >= want.deltas {
		t.Error("the record served no stepped epoch or no window proof; the identity proves nothing")
	}
}

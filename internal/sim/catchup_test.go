package sim

import (
	"reflect"
	"testing"

	"cmpqos/internal/workload"
)

// wakeProbe wraps a fleet's dispatcher and inspects every node an
// arrival is placed on just before the cluster wakes it. It counts the
// sleepers whose clock lags the cluster's (lagged), the ones whose
// recorded window is still valid — catchUp is about to serve them from
// the record (hits) — and separately the ones the memo must cut short —
// woken after an odd number of epochs inside a longer period-2 window,
// so min(k, need) is rounded down to need−1 and the last epoch is left
// to the priced failure and the step.
type wakeProbe struct {
	inner  Dispatcher
	cr     *ClusterRunner
	lagged int
	hits   int
	oddP2  int
}

func (p *wakeProbe) Name() string { return p.inner.Name() }

func (p *wakeProbe) Place(a Arrival) Placement {
	pl := p.inner.Place(a)
	if pl.Node < 0 || p.cr.wakes[pl.Node] == retiredWake {
		return pl
	}
	n := p.cr.nodes[pl.Node]
	if n.now < p.cr.now {
		p.lagged++
	}
	if n.ffProvedK == 0 || n.ffProvedAt != n.now {
		return pl
	}
	need := (p.cr.now - n.now) / n.cfg.EpochCycles
	if P := int64(n.ffPeriod); min(n.ffProvedK, need)/P*P > 0 {
		p.hits++
		if n.ffPeriod == 2 && need < n.ffProvedK && need%2 == 1 {
			p.oddP2++
		}
	}
	return pl
}

// TestCatchUpReusesProvedWindow holds a fleet node's fast paths — the
// catch-up record above all, the window nextHorizon proved and a wake
// applies — to the reference engine inside the same rounds: every
// oracle fleet, and the sim-fleet benchmark's paper-scale fleet at 64
// nodes under every dispatcher, runs once with production nodes and
// once with every node on the reference engine, which proves no window
// and so sleeps through none. With the rounds on both sides, a
// difference is a node's, not the rounds'. The fleet report and every
// node's report must be equal but for what they hold of idle epochs (a
// reference node with fault points pending wakes every epoch, not at
// each point; maskNode). Two last cases mutate a sleeping node between
// the proof and the catch-up, which must drop the record.
func TestCatchUpReusesProvedWindow(t *testing.T) {
	fleets := oracleFleets()
	for _, disp := range testDispatchers() {
		cfg := ClusterConfig{Nodes: 64, Node: DefaultConfig(Hybrid2, workload.Single("bzip2")), AcceptTarget: 256, Dispatcher: disp}
		fleets = append(fleets, fleetCase{name: "paper-scale/" + disp, cfg: cfg})
	}
	run := func(t *testing.T, cfg ClusterConfig, reference bool) (ClusterReport, []*Report) {
		cr := newTestCluster(t, cfg)
		for _, n := range cr.nodes {
			n.reference = reference
		}
		rep, err := cr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return maskFleet(rep), nodeReports(cr)
	}
	for _, tc := range fleets {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fleet, nodes := run(t, tc.cfg, false)
			wantFleet, wantNodes := run(t, tc.cfg, true)
			if !reflect.DeepEqual(fleet, wantFleet) {
				t.Errorf("fleet report differs from the reference\ngot:  %+v\nwant: %+v", fleet, wantFleet)
			}
			for i := range nodes {
				if got, want := maskNode(nodes[i]), maskNode(wantNodes[i]); !reflect.DeepEqual(got, want) {
					t.Errorf("node %d report differs from the reference (later nodes not shown)\ngot:  %+v\nwant: %+v", i, got, want)
					break
				}
			}
		})
	}

	// The record dies when the node moves on from the cycle it was proved
	// at: a node proves a window of k epochs with one job, then either
	// accepts a second job at its own clock before catching up (the
	// recorded deltas do not price it), or catches up part of the window
	// and then past its end (the rest of the record would overrun it).
	// Either way catchUp must prove again. The reference twin takes the
	// same clock moves.
	for _, tc := range []struct {
		name  string
		admit bool
	}{{"admit-drops-record", true}, {"clock-move-drops-record", false}} {
		t.Run(tc.name, func(t *testing.T) {
			node := func(reference bool) *Runner {
				n := newTestCluster(t, clusterSkipCfg()).nodes[0]
				n.reference = reference
				if !n.submitTemplate(0, workload.DeadlineRelaxed, 0) {
					t.Fatal("first job rejected")
				}
				return n
			}
			finish := func(n *Runner, k int64) Report {
				E := n.cfg.EpochCycles
				if tc.admit {
					if !n.submitTemplate(0, workload.DeadlineRelaxed, n.now) {
						t.Fatal("second job rejected")
					}
					if n.ffProvedK != 0 {
						t.Error("the record survived an admission")
					}
				} else {
					n.catchUp(n.now + 2*E)
				}
				n.catchUp(n.now + k*E)
				for n.liveCount() > 0 {
					if n.now > maxCycles {
						t.Fatal("the jobs never finished")
					}
					n.step()
				}
				rep := *n.report() // the epochs, summed: the split is the reference's to change
				rep.EpochsStepped, rep.EpochsSkipped = rep.EpochsStepped+rep.EpochsSkipped, 0
				return rep
			}
			prod, ref := node(false), node(true)
			var k int64
			for tries := 0; k < 4 && tries < 1000; tries++ {
				prod.step()
				ref.step()
				k = (prod.nextHorizon() - prod.now) / prod.cfg.EpochCycles
			}
			if k < 4 {
				t.Fatal("no window of four or more epochs was proved")
			}
			if got, want := finish(prod, k), finish(ref, k); !reflect.DeepEqual(got, want) {
				t.Errorf("node report differs from the reference\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestWakeServedFromCatchUpRecord: a wake that finds the window
// nextHorizon proved still valid applies the recorded deltas rather than
// proving the window again. The test proves a window on a fleet node,
// adds a shadow miss to its job's recorded delta in both parities and
// drops the pricing record, so that a second proof would price the true
// deltas, then catches the node up across the window: the job must carry
// the altered count, which only the record holds.
func TestWakeServedFromCatchUpRecord(t *testing.T) {
	n := newTestCluster(t, clusterSkipCfg()).nodes[0]
	if !n.submitTemplate(0, workload.DeadlineRelaxed, 0) {
		t.Fatal("job rejected")
	}
	E := n.cfg.EpochCycles
	var k int64
	for tries := 0; k < 4 && tries < 1000; tries++ {
		n.step()
		k = (n.nextHorizon() - n.now) / E
	}
	if k < 4 {
		t.Fatal("no window of four or more epochs was proved")
	}
	j := n.accepted[0]
	n.parityDeltas(0)[0].shadow++
	n.parityDeltas(1)[0].shadow++
	n.ffPricedAt = unpriced
	P := int64(n.ffPeriod)
	perPeriod := n.parityDeltas(0)[0].shadow
	if P == 2 {
		perPeriod += n.parityDeltas(1)[0].shadow
	}
	want, skipped := j.ShadowMisses+k/P*perPeriod, n.nSkipped+k
	n.catchUp(n.now + k*E)
	if j.ShadowMisses != want || n.nSkipped != skipped {
		t.Errorf("catching up a %d-epoch period-%d window left %d shadow misses and %d skipped epochs; the record gives %d and %d",
			k, P, j.ShadowMisses, n.nSkipped, want, skipped)
	}
}

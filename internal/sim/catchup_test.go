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

// backoff is a node's fast-forward backoff meter.
type backoff struct{ fails, deferred int8 }

// runCatchUp runs one fleet to completion with catchUp re-proving every
// window (reprove) or applying the one nextHorizon recorded, and returns
// the fleet report, every node's report and backoff meter, and the probe.
func runCatchUp(t *testing.T, cfg ClusterConfig, reprove bool) (*ClusterReport, []*Report, []backoff, *wakeProbe) {
	t.Helper()
	cr := newTestCluster(t, cfg)
	for _, n := range cr.nodes {
		n.reproveCatchUp = reprove
	}
	probe := &wakeProbe{inner: cr.disp, cr: cr}
	cr.disp = probe
	rep, err := cr.Run()
	if err != nil {
		t.Fatal(err)
	}
	meters := make([]backoff, len(cr.nodes))
	for i, n := range cr.nodes {
		meters[i] = backoff{n.ffFails, n.ffDefer}
	}
	return rep, nodeReports(cr), meters, probe
}

// TestCatchUpReusesProvedWindow holds the catch-up memo to the path it
// replaced: every oracle fleet, and the sim-fleet benchmark's
// paper-scale fleet at 64 nodes under every dispatcher, runs with
// catchUp re-proving each window and with it applying the window
// nextHorizon recorded, and the fleet report, every node's report —
// epoch counters included, nothing masked — and every node's backoff
// meter must be equal. The oracle fleets are event-dense: their
// arrivals land on due or retired nodes, so only the paper-scale ones
// wake sleepers, and the memo must demonstrably serve such wakes,
// woken-early odd-need period-2 windows among them. A last case mutates
// a sleeping node between the proof and the catch-up, which must drop
// the record.
func TestCatchUpReusesProvedWindow(t *testing.T) {
	fleets := oracleFleets()
	for _, disp := range testDispatchers() {
		cfg := ClusterConfig{Nodes: 64, Node: DefaultConfig(Hybrid2, workload.Single("bzip2")), AcceptTarget: 256, Dispatcher: disp}
		fleets = append(fleets, fleetCase{name: "paper-scale/" + disp, cfg: cfg})
	}
	var hits, oddP2 int
	for _, tc := range fleets {
		t.Run(tc.name, func(t *testing.T) {
			wantFleet, wantNodes, wantMeters, _ := runCatchUp(t, tc.cfg, true)
			fleet, nodes, meters, probe := runCatchUp(t, tc.cfg, false)
			hits += probe.hits
			oddP2 += probe.oddP2
			if !reflect.DeepEqual(fleet, wantFleet) {
				t.Errorf("fleet report differs from re-proving catch-up\ngot:  %+v\nwant: %+v", fleet, wantFleet)
			}
			for i := range nodes {
				if !reflect.DeepEqual(nodes[i], wantNodes[i]) {
					t.Errorf("node %d report differs from re-proving catch-up (later nodes not shown)\ngot:  %+v\nwant: %+v", i, nodes[i], wantNodes[i])
					break
				}
			}
			if !reflect.DeepEqual(meters, wantMeters) {
				t.Errorf("backoff meters {ffFails, ffDefer} differ from re-proving catch-up\ngot:  %v\nwant: %v", meters, wantMeters)
			}
		})
	}
	t.Logf("wakes served from the record: %d, of them woken-early odd-need period-2: %d", hits, oddP2)
	if hits == 0 || oddP2 == 0 {
		t.Errorf("the memo served %d wakes, %d of them an odd-need period-2 window; the identity proves nothing", hits, oddP2)
	}

	// The record dies when the node moves on from the cycle it was proved
	// at: a node proves a window of k epochs with one job, then either
	// accepts a second job at its own clock before catching up (the
	// recorded deltas do not price it), or catches up part of the window
	// and then past its end (the rest of the record would overrun it).
	// Either way catchUp must prove again.
	for _, tc := range []struct {
		name  string
		admit bool
	}{{"admit-drops-record", true}, {"clock-move-drops-record", false}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reprove bool) *Report {
				cr := newTestCluster(t, clusterSkipCfg())
				n := cr.nodes[0]
				n.reproveCatchUp = reprove
				tmpl := n.cfg.Workload.Jobs[0]
				E := n.cfg.EpochCycles
				if !n.submitTemplate(tmpl, workload.DeadlineRelaxed, 0) {
					t.Fatal("first job rejected")
				}
				var k int64
				for tries := 0; k < 4 && tries < 1000; tries++ {
					n.step()
					k = (n.nextHorizon() - n.now) / E
				}
				if k < 4 {
					t.Fatal("no window of four or more epochs was proved")
				}
				if tc.admit {
					if !n.submitTemplate(tmpl, workload.DeadlineRelaxed, n.now) {
						t.Fatal("second job rejected")
					}
					if n.ffProvedK != 0 {
						t.Error("the record survived an admission")
					}
				} else {
					n.catchUp(n.now + 2*E)
				}
				n.catchUp(n.now + k*E)
				for !n.idle() {
					if n.now > maxCycles {
						t.Fatal("the jobs never finished")
					}
					n.step()
				}
				return n.report()
			}
			if got, want := run(false), run(true); !reflect.DeepEqual(got, want) {
				t.Errorf("node report differs from re-proving catch-up\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

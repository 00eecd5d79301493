package cmpqos

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeAdmissionFlow(t *testing.T) {
	node := NewNode(PaperNodeCapacity())
	tw := int64(1_000_000)
	dec := node.Admit(Request{
		JobID:   1,
		Target:  RUM{Resources: PresetMedium(), MaxWallClock: tw, Deadline: 3 * tw},
		Mode:    Strict(),
		Arrival: 0,
	})
	if !dec.Accepted {
		t.Fatalf("admission failed: %s", dec.Reason)
	}
	// Non-convertible targets are rejected (the paper's Definition 1).
	dec = node.Admit(Request{JobID: 2, Target: OPM{IPC: 0.25}, Mode: Strict()})
	if dec.Accepted {
		t.Error("OPM target must be rejected")
	}
	if !strings.Contains(dec.Reason, "not convertible") {
		t.Errorf("reason = %q", dec.Reason)
	}
}

func TestFacadeCluster(t *testing.T) {
	a := NewNode(PaperNodeCapacity())
	b := NewNode(PaperNodeCapacity())
	cl := NewCluster(a, b)
	tw := int64(1_000_000)
	for i := 0; i < 4; i++ {
		node, dec := cl.Submit(Request{
			JobID:   i,
			Target:  RUM{Resources: PresetMedium(), MaxWallClock: tw, Deadline: 3 * tw},
			Mode:    Strict(),
			Arrival: 0,
		})
		if !dec.Accepted {
			t.Fatalf("job %d rejected: %s", i, dec.Reason)
		}
		if dec.Start != 0 {
			t.Errorf("job %d start = %d; two nodes fit four immediate jobs", i, dec.Start)
		}
		_ = node
	}
}

func TestFacadeSimulate(t *testing.T) {
	cfg := NewSimConfig(Hybrid2, SingleWorkload("bzip2"))
	cfg.JobInstr = 5_000_000
	cfg.StealIntervalInstr = 250_000
	rep, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 10 || rep.DeadlineHitRate != 1.0 {
		t.Errorf("jobs=%d hit=%v", len(rep.Jobs), rep.DeadlineHitRate)
	}
	trace := NewTraceSimConfig(Hybrid2, SingleWorkload("bzip2"))
	if trace.Engine != EngineTrace {
		t.Errorf("NewTraceSimConfig engine = %v, want the trace engine", trace.Engine)
	}
	trace.Cores = 0
	if _, err := Simulate(trace); err == nil {
		t.Error("Simulate ran an invalid configuration")
	}
	if _, err := SimulateCluster(ClusterSimConfig{Nodes: 1, Node: trace, AcceptTarget: 1}); err == nil {
		t.Error("SimulateCluster ran invalid nodes")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(Benchmarks()) != 15 {
		t.Error("expected fifteen benchmark profiles")
	}
	if _, ok := BenchmarkByName("bzip2"); !ok {
		t.Error("bzip2 missing")
	}
	if len(Mix1().Jobs) != 10 || len(Mix2().Jobs) != 10 {
		t.Error("mixes must have ten jobs")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 12 {
		t.Errorf("registry has %d experiments", len(Experiments()))
	}
	var buf bytes.Buffer
	if err := RunExperiment("fig1", ExperimentOptions{}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("fig1 output missing title")
	}
	if err := RunExperiment("nonesuch", ExperimentOptions{}, &buf); err == nil || err.Error() != "cmpqos: unknown experiment nonesuch" {
		t.Errorf("unknown experiment: %v, want an error naming it", err)
	}
}

func TestFacadeModes(t *testing.T) {
	if Strict().Reserves() != true || Opportunistic().Reserves() != false {
		t.Error("mode reservation semantics wrong")
	}
	if Elastic(0.05).String() != "Elastic(5%)" {
		t.Error("elastic naming wrong")
	}
}

func TestFacadeClusterSimulation(t *testing.T) {
	cfg := ClusterSimConfig{
		Nodes:        2,
		Node:         NewSimConfig(Hybrid2, SingleWorkload("bzip2")),
		AcceptTarget: 20,
	}
	cfg.Node.JobInstr = 5_000_000
	cfg.Node.StealIntervalInstr = 250_000
	rep, err := SimulateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 20 || rep.DeadlineHitRate != 1.0 {
		t.Errorf("accepted=%d hit=%v", rep.Accepted, rep.DeadlineHitRate)
	}
}

func TestFacadePhases(t *testing.T) {
	p, _ := BenchmarkByName("bzip2")
	ph := p.WithPhases(Phase{Until: 0.5, MPIScale: 0.5}, Phase{Until: 1, MPIScale: 1})
	if ph.PhaseScale(0.25) != 0.5 {
		t.Error("phase scale wrong through the facade")
	}
}

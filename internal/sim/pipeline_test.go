package sim

import (
	"fmt"
	"testing"

	"cmpqos/internal/workload"
)

// TestRegistryContents pins the built-in policy registrations and the
// default name resolution by Policy.
func TestRegistryContents(t *testing.T) {
	want := map[string][]string{
		"scheduler": SchedulerNames(),
		"allocator": AllocatorNames(),
	}
	expect := map[string][]string{
		"scheduler": {"packed", "reserved", "shared"},
		"allocator": {"equal", "reserved", "ucp"},
	}
	for kind, got := range want {
		if fmt.Sprint(got) != fmt.Sprint(expect[kind]) {
			t.Errorf("%s registry = %v, want %v", kind, got, expect[kind])
		}
	}

	defaults := []struct {
		policy       Policy
		sched, alloc string
	}{
		{AllStrict, "reserved", "reserved"},
		{Hybrid2, "reserved", "reserved"},
		{EqualPart, "shared", "equal"},
		{UCPPart, "shared", "ucp"},
	}
	for _, d := range defaults {
		cfg := Config{Policy: d.policy}
		if s, a := cfg.schedulerName(), cfg.allocatorName(); s != d.sched || a != d.alloc {
			t.Errorf("%v pipeline = %s/%s, want %s/%s", d.policy, s, a, d.sched, d.alloc)
		}
	}
	// Explicit names win over the policy defaults.
	cfg := Config{Policy: AllStrict, Scheduler: "packed", Allocator: "ucp"}
	if s, a := cfg.schedulerName(), cfg.allocatorName(); s != "packed" || a != "ucp" {
		t.Errorf("explicit pipeline = %s/%s", s, a)
	}
}

func TestUnknownPolicyNamesRejected(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Scheduler = "nope" },
		func(c *Config) { c.Allocator = "nope" },
	} {
		cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("unknown policy name accepted: %s/%s", cfg.Scheduler, cfg.Allocator)
		}
	}
}

// pipelineGrid builds one configuration per registered scheduler ×
// allocator pair.
func pipelineGrid() []Config {
	var cfgs []Config
	for _, sched := range SchedulerNames() {
		for _, alloc := range AllocatorNames() {
			cfg := fastConfig(Hybrid2, workload.Mix1())
			cfg.Scheduler = sched
			cfg.Allocator = alloc
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func fingerprint(rep *Report, log *EventLog) string {
	return fmt.Sprintf("%s|%+v|rej=%d|term=%d|events=%d",
		rep.Summary(), rep.Frag, rep.Rejected, rep.Terminated, len(log.Events()))
}

// TestPipelineCombinationsDeterministic runs every registered
// scheduler×allocator pair end to end and checks each is deterministic:
// two independent serial executions agree, and a 4-worker concurrent
// execution of the whole grid (which is also what the race detector
// exercises in -race runs) reproduces the serial results byte for byte.
func TestPipelineCombinationsDeterministic(t *testing.T) {
	cfgs := pipelineGrid()

	serial1, log1 := runAllLogged(t, 1, cfgs)
	serial2, log2 := runAllLogged(t, 1, cfgs)
	workers4, log4 := runAllLogged(t, 4, cfgs)
	for i, cfg := range cfgs {
		name := cfg.Scheduler + "/" + cfg.Allocator
		f1, f2, f4 := fingerprint(serial1[i], log1[i]), fingerprint(serial2[i], log2[i]), fingerprint(workers4[i], log4[i])
		if f1 != f2 {
			t.Errorf("%s: serial reruns differ:\n%s\n%s", name, f1, f2)
		}
		if f1 != f4 {
			t.Errorf("%s: workers=4 differs from serial:\n%s\n%s", name, f1, f4)
		}
		if len(serial1[i].Jobs) == 0 {
			t.Errorf("%s: no jobs completed", name)
		}
	}
}

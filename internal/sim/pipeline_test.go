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
		"admission": AdmissionNames(),
	}
	expect := map[string][]string{
		"scheduler": {"packed", "reserved", "shared"},
		"allocator": {"equal", "reserved", "ucp"},
		"admission": {"fcfs", "latest"},
	}
	for kind, got := range want {
		if fmt.Sprint(got) != fmt.Sprint(expect[kind]) {
			t.Errorf("%s registry = %v, want %v", kind, got, expect[kind])
		}
	}

	defaults := []struct {
		policy                  Policy
		sched, alloc, admission string
	}{
		{AllStrict, "reserved", "reserved", "fcfs"},
		{Hybrid2, "reserved", "reserved", "fcfs"},
		{EqualPart, "shared", "equal", "fcfs"},
		{UCPPart, "shared", "ucp", "fcfs"},
	}
	for _, d := range defaults {
		cfg := Config{Policy: d.policy}
		s, a, ad := cfg.PipelineNames()
		if s != d.sched || a != d.alloc || ad != d.admission {
			t.Errorf("%v pipeline = %s/%s/%s, want %s/%s/%s",
				d.policy, s, a, ad, d.sched, d.alloc, d.admission)
		}
	}
	// Explicit names win over the policy defaults.
	cfg := Config{Policy: AllStrict, Scheduler: "packed", Allocator: "ucp", Admission: "latest"}
	if s, a, ad := cfg.PipelineNames(); s != "packed" || a != "ucp" || ad != "latest" {
		t.Errorf("explicit pipeline = %s/%s/%s", s, a, ad)
	}
}

func TestUnknownPolicyNamesRejected(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Scheduler = "nope" },
		func(c *Config) { c.Allocator = "nope" },
		func(c *Config) { c.Admission = "nope" },
	} {
		cfg := fastConfig(Hybrid2, workload.Single("bzip2"))
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			s, a, ad := cfg.PipelineNames()
			t.Errorf("unknown policy name accepted: %s/%s/%s", s, a, ad)
		}
	}
}

// pipelineGrid builds one configuration per registered scheduler ×
// allocator pair (admission stays fcfs; placement changes admission
// decisions, not plan determinism).
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
		s, a, _ := cfg.PipelineNames()
		name := s + "/" + a
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

package sim

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cmpqos/internal/workload"
)

func runCacheCfg() Config {
	cfg := DefaultConfig(Hybrid2, workload.Single("bzip2"))
	cfg.JobInstr = 2_000_000
	cfg.StealIntervalInstr = 20_000
	return cfg
}

// TestRunCacheSingleflight: concurrent requests for one key must execute
// exactly one simulation and all observe the same report object.
func TestRunCacheSingleflight(t *testing.T) {
	c := NewRunCache()
	cfg := runCacheCfg()
	const goroutines = 8
	reps := make([]*Report, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := c.Run(context.Background(), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}(i)
	}
	wg.Wait()
	if got := c.Len(); got != 1 {
		t.Errorf("Len() = %d after %d concurrent identical runs, want 1", got, goroutines)
	}
	for i := 1; i < goroutines; i++ {
		if reps[i] != reps[0] {
			t.Errorf("goroutine %d got a distinct report object; cache did not deduplicate", i)
		}
	}
}

// TestRunCacheDistinguishesConfigs: any config difference must be a
// distinct key, including nested and floating-point fields.
func TestRunCacheDistinguishesConfigs(t *testing.T) {
	c := NewRunCache()
	base := runCacheCfg()
	variants := []func(*Config){
		func(cfg *Config) { cfg.Seed++ },
		func(cfg *Config) { cfg.ElasticSlack += 0.001 },
		func(cfg *Config) { cfg.Policy = AllStrict },
		func(cfg *Config) { cfg.L2.Ways = 32 },
	}
	if _, err := c.Run(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	for i, mut := range variants {
		cfg := base
		mut(&cfg)
		if cfg.CacheKey() == base.CacheKey() {
			t.Fatalf("variant %d produced the same cache key as the base config", i)
		}
		if _, err := c.Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Len(), 1+len(variants); got != want {
		t.Errorf("Len() = %d, want %d (every variant must run fresh)", got, want)
	}
}

// TestConfigIsPlainValue checks the invariant CacheKey's %#v rendering
// rests on: no field of Config, at any depth, is a pointer, map, func,
// chan, interface or unsafe pointer — kinds that render as an address
// (two equal configs get two keys) or in no fixed order.
func TestConfigIsPlainValue(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Ptr, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			t.Errorf("%s is a %s: Config.CacheKey would no longer be canonical", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Config", reflect.TypeOf(Config{}))
}

// TestRunCacheNilRunsFresh: a nil cache is the documented off switch —
// every call simulates anew.
func TestRunCacheNilRunsFresh(t *testing.T) {
	var c *RunCache
	cfg := runCacheCfg()
	rep1, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 == rep2 {
		t.Error("nil cache returned a shared report; it must run fresh every time")
	}
	if rep1.TotalCycles != rep2.TotalCycles {
		t.Errorf("fresh runs of one config disagree: %d vs %d cycles", rep1.TotalCycles, rep2.TotalCycles)
	}
}

// TestRunCacheForgetsCancelledRun: a run cut short by its caller's
// context says nothing about the configuration, so it is not memoized —
// the next caller with a live context simulates and gets a report.
func TestRunCacheForgetsCancelledRun(t *testing.T) {
	c := NewRunCache()
	cfg := runCacheCfg()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := c.Run(cancelled, cfg); err == nil {
		t.Fatalf("run under a cancelled context returned a report (%d cycles), want an error", rep.TotalCycles)
	}
	rep, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("run under a live context after a cancelled one: %v", err)
	}
	if rep == nil || len(rep.Jobs) == 0 {
		t.Fatal("run under a live context returned no report")
	}
	if got := c.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
	}
}

// TestCacheKeyCoversWorkload: the key must reflect slice-valued fields
// (workload composition, scripted jobs), not just scalars.
func TestCacheKeyCoversWorkload(t *testing.T) {
	a := DefaultConfig(Hybrid2, workload.Single("bzip2"))
	b := DefaultConfig(Hybrid2, workload.Single("gobmk"))
	if a.CacheKey() == b.CacheKey() {
		t.Error("different workloads share a cache key")
	}
	c := a
	c.Script = append([]ScriptedJob(nil), ScriptedJob{Arrival: 1})
	if a.CacheKey() == c.CacheKey() {
		t.Error("scripted jobs do not affect the cache key")
	}
	if !strings.Contains(a.CacheKey(), "bzip2") {
		t.Error("cache key does not mention the benchmark; the canonical rendering is broken")
	}
}

package sim

import (
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
			rep, err := c.Run(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}(i)
	}
	wg.Wait()
	if got := c.Computes(); got != 1 {
		t.Errorf("Computes() = %d after %d concurrent identical runs, want 1", got, goroutines)
	}
	for i := 1; i < goroutines; i++ {
		if reps[i] != reps[0] {
			t.Errorf("goroutine %d got a distinct report object; cache did not deduplicate", i)
		}
	}
	if got := c.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
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
	if _, err := c.Run(base); err != nil {
		t.Fatal(err)
	}
	for i, mut := range variants {
		cfg := base
		mut(&cfg)
		if cfg.CacheKey() == base.CacheKey() {
			t.Fatalf("variant %d produced the same cache key as the base config", i)
		}
		if _, err := c.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := c.Computes(), int64(1+len(variants)); got != want {
		t.Errorf("Computes() = %d, want %d (every variant must run fresh)", got, want)
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
	rep1, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c.Run(cfg)
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

// TestRunCacheMemoizesErrors: a config that fails validation fails
// identically (and cheaply) on every lookup.
func TestRunCacheMemoizesErrors(t *testing.T) {
	c := NewRunCache()
	cfg := runCacheCfg()
	cfg.Cores = 0 // invalid
	_, err1 := c.Run(cfg)
	if err1 == nil {
		t.Fatal("invalid config did not error")
	}
	_, err2 := c.Run(cfg)
	if err2 == nil || err1.Error() != err2.Error() {
		t.Errorf("memoized error differs: %v vs %v", err1, err2)
	}
	if got := c.Computes(); got != 1 {
		t.Errorf("Computes() = %d, want 1 (the error must be cached)", got)
	}
}

// TestRunCacheReset: Reset drops entries and the counter.
func TestRunCacheReset(t *testing.T) {
	c := NewRunCache()
	if _, err := c.Run(runCacheCfg()); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Len() != 0 || c.Computes() != 0 {
		t.Errorf("after Reset: Len=%d Computes=%d, want 0/0", c.Len(), c.Computes())
	}
	if _, err := c.Run(runCacheCfg()); err != nil {
		t.Fatal(err)
	}
	if c.Computes() != 1 {
		t.Errorf("Computes() = %d after reset and one run, want 1", c.Computes())
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

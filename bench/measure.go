package main

import (
	"runtime"
	"sort"
	"time"
)

// slices is how many equal-op slices a measured phase is cut into.
// Throughput is ops-per-slice over the median slice time, so one stalled
// slice (host steal, a slow fsync inside a snapshot) cannot move it.
const slices = 40

// phase is one measured run of a workload's op loop.
type phase struct {
	lat      []time.Duration // per-op client-observed latency, in op order
	slice    []time.Duration // wall time of each slice
	perSlice int
	alloc    uint64 // TotalAlloc delta over the phase
}

// measure runs ops calls of do, which performs op i and returns the
// latency it observed. ops is a whole number of slices (opsFor sees to
// it). Every buffer is allocated before the first op so the allocation
// delta is the workload's alone.
func measure(ops int, do func(i int) time.Duration) phase {
	per := ops / slices
	p := phase{
		lat:      make([]time.Duration, per*slices),
		slice:    make([]time.Duration, slices),
		perSlice: per,
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for s := 0; s < slices; s++ {
		for i := s * per; i < (s+1)*per; i++ {
			p.lat[i] = do(i)
		}
		now := time.Now()
		p.slice[s] = now.Sub(t)
		t = now
	}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return p
}

func (p phase) ops() int { return len(p.lat) }

// opsPerSec is ops-per-slice over the median slice wall time.
func (p phase) opsPerSec() float64 {
	return float64(p.perSlice) / quantile(p.slice, 0.5).Seconds()
}

// thirdsGap is the relative difference between the median slice time of
// the first and the last third of the phase: on a quiet host, drift in
// the op's cost; on this one, mostly the host's.
func (p phase) thirdsGap() float64 {
	n := len(p.slice) / 3
	a := quantile(p.slice[:n], 0.5).Seconds()
	b := quantile(p.slice[len(p.slice)-n:], 0.5).Seconds()
	return (b - a) / a
}

// sliceIQR is the quartile spread of the slice times over their median.
func (p phase) sliceIQR() float64 {
	return float64(quantile(p.slice, 0.75)-quantile(p.slice, 0.25)) / float64(quantile(p.slice, 0.5))
}

// sliceMillis is the slice series, for eyeballing drift.
func (p phase) sliceMillis() []int64 {
	ms := make([]int64, len(p.slice))
	for i, d := range p.slice {
		ms[i] = d.Milliseconds()
	}
	return ms
}

// liveHeapMB forces a collection and returns the bytes still reachable.
// Two cycles: sync.Pool contents and finalizable objects survive one.
func liveHeapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile (nearest rank) of d without
// reordering it.
func quantile(d []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return rank(s, q)
}

// rank is quantile over an already sorted s.
func rank(s []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// setupRepeats is how many times a run sets up; setup_s is the median.
// One set-up is a second or two of work and this host stalls in bursts,
// so a single sample swings ±30%.
const setupRepeats = 3

// endToEnd is the metric set every workload reports with tracing off;
// tail holds the ungated timings, which every run prints and the traced
// run reports.
func (p phase) endToEnd(setups []time.Duration, liveMB float64) (e2e, tail map[string]float64) {
	e2e = map[string]float64{
		"setup_s":         quantile(setups, 0.5).Seconds(),
		"alloc_kb_per_op": float64(p.alloc) / 1e3 / float64(p.ops()),
		"live_heap_mb":    liveMB,
	}
	lat := append([]time.Duration(nil), p.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	tail = map[string]float64{
		"op_p50_us":  us(rank(lat, 0.50)),
		"op_p90_us":  us(rank(lat, 0.90)),
		"op_p99_us":  us(rank(lat, 0.99)),
		"op_p999_us": us(rank(lat, 0.999)),
		"op_max_us":  us(rank(lat, 1)),
		"ops_per_s":  p.opsPerSec(),
	}
	return e2e, tail
}

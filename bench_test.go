package cmpqos

// The benchmark harness: one testing.B benchmark per paper table and
// figure DESIGN §4 indexes (regenerating the experiment and reporting its
// headline numbers as custom metrics), the ablations it calls out, and
// the admission and dispatch benches `make bench-smoke` runs. Whatever
// bench/ prices as a per-layer metric (BENCHMARK.json) is measured there
// and has no benchmark here. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches use scaled job lengths (20 M instructions) so a full
// sweep completes in seconds; pass -instr via the qossim CLI for the
// paper's 200 M scale.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"cmpqos/internal/cache"
	"cmpqos/internal/experiments"
	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// benchOpts are the scaled experiment options used by the figure
// benches. They carry no run cache, so each iteration measures real
// simulation work; a cache shared across iterations would measure map
// lookups after the first.
func benchOpts() experiments.Options {
	return experiments.Options{JobInstr: 20_000_000}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.AloneIPC, "alone-IPC")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if c, ok := r.Cell("gobmk", sim.Hybrid1); ok {
				b.ReportMetric(c.Normalized, "gobmk-hybrid1-speedup")
			}
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric((1-float64(r.AutoTotal)/float64(r.StrictTotal))*100, "autodown-gain-%")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// The X=5% point: miss increase should sit at ~5%.
			b.ReportMetric(r.Rows[2].MissIncrease*100, "missinc-at-5%-slack")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if c, ok := r.Cell("Mix-1", sim.Hybrid2); ok {
				b.ReportMetric(c.Normalized, "mix1-hybrid2-speedup")
			}
		}
	}
}

func BenchmarkLAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.LAC(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(r.Rows[1].Occupancy*100, "occupancy-%-at-512")
		}
	}
}

// ---- Ablation benches (DESIGN.md) ----

func BenchmarkPartitionVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPartition(experiments.Options{})
		if i == b.N-1 {
			b.ReportMetric(r.GlobalCoV, "global-CoV")
			b.ReportMetric(r.PerSetCoV, "per-set-CoV")
		}
	}
}

func BenchmarkShadowSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationSampling(experiments.Options{})
		if i == b.N-1 {
			b.ReportMetric(r.Full, "full-excess-ratio")
		}
	}
}

// ---- Microarchitecture benches ----

// BenchmarkVictimPolicy stresses the QoS-aware victim selection: four
// owners with mixed classes contending in every set.
func BenchmarkVictimPolicy(b *testing.B) {
	cfg := cache.PaperL2()
	c := cache.NewPartitioned(cfg)
	c.SetTarget(0, 7)
	c.SetClass(0, cache.ClassReserved)
	c.SetTarget(1, 5)
	c.SetClass(1, cache.ClassReserved)
	c.SetClass(2, cache.ClassOpportunistic)
	c.SetClass(3, cache.ClassOpportunistic)
	streams := []*workload.Stream{
		workload.MustByName("bzip2").NewStream(1, 0),
		workload.MustByName("hmmer").NewStream(1, 1),
		workload.MustByName("gobmk").NewStream(1, 2),
		workload.MustByName("mcf").NewStream(1, 3),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := i & 3
		c.Access(o, streams[o].Next())
	}
}

// ---- Admission control benches ----

// packedTimeline builds a timeline with n live medium reservations, two
// per 1000-cycle window back to back — the paper's §7.1 shape (two of
// {1 core, 7 ways} saturate 16 ways) stretched to arbitrary depth. A
// third medium request is blocked in the ways dimension across every
// window, so EarliestFit must reason past all n holds to find the slot
// at the horizon.
func packedTimeline(n int) *qos.Timeline {
	tl := qos.NewTimeline(qos.ResourceVector{Cores: 4, CacheWays: 16})
	med := qos.PresetMedium()
	const tw = int64(1000)
	for i := 0; i < n; i++ {
		tl.Reserve(i, med, int64(i/2)*tw, tw)
	}
	return tl
}

// BenchmarkTimelineEarliestFit measures one §5 admission decision
// against 1k/100k/1M live reservations. The indexed profile resolves
// the fully-blocked scan in a handful of tree descents, so the curve
// stays logarithmic (sub-microsecond at 1M) where the naive candidate
// scan was cubic.
func BenchmarkTimelineEarliestFit(b *testing.B) {
	med := qos.PresetMedium()
	for _, c := range []struct {
		label string
		n     int
	}{{"1k", 1_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run("n="+c.label, func(b *testing.B) {
			tl := packedTimeline(c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tl.EarliestFit(med, 0, 1000, 0); !ok {
					b.Fatal("no fit found")
				}
			}
		})
	}
}

// BenchmarkTimelineChurn measures the steady-state mutation mix: release
// the oldest hold, find the slot it freed, and re-reserve it — the
// admission loop's per-job footprint at 100k live reservations.
func BenchmarkTimelineChurn(b *testing.B) {
	const n = 100_000
	tl := packedTimeline(n)
	med := qos.PresetMedium()
	ids := make([]int, 0, n)
	for _, r := range tl.Reservations() {
		ids = append(ids, r.ID)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old, _ := tl.Get(ids[i%len(ids)])
		tl.Release(old.ID)
		s, ok := tl.EarliestFit(med, old.Start, 1000, old.Start+1000)
		if !ok {
			b.Fatal("freed slot not found")
		}
		ids[i%len(ids)] = tl.Reserve(old.JobID, med, s, 1000)
	}
}

// BenchmarkTimelineSetCapacity measures a fault storm at 100k live
// reservations: ways go dark (evicting one hold per affected window),
// recover, and the evictees are re-admitted — the sim's refit path.
func BenchmarkTimelineSetCapacity(b *testing.B) {
	const n = 100_000
	tl := packedTimeline(n)
	full := qos.ResourceVector{Cores: 4, CacheWays: 16}
	dark := qos.ResourceVector{Cores: 4, CacheWays: 13}
	horizon := tl.Horizon(0)
	from := horizon - 10_000 // the storm clips the last ten windows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evicted := tl.SetCapacity(dark, from)
		tl.SetCapacity(full, from)
		for _, r := range evicted {
			tl.Reserve(r.JobID, r.Vec, r.Start, r.End-r.Start)
		}
	}
}

// BenchmarkTimelineAvailability measures the profile walk that replaced
// the per-call map+sort: appending the availability steps for a 10-window
// span out of 100k reservations into a reused buffer allocates nothing.
func BenchmarkTimelineAvailability(b *testing.B) {
	const n = 100_000
	tl := packedTimeline(n)
	buf := make([]qos.AvailabilityStep, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tl.AppendAvailability(buf[:0], 50_000, 60_000)
	}
}

// gacGrant is a live grant of BenchmarkGACSubmit; grantHeap orders them
// by completion instant.
type gacGrant struct {
	due      int64
	id, node int
}

type grantHeap []gacGrant

func (h grantHeap) Len() int           { return len(h) }
func (h grantHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h grantHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *grantHeap) Push(x any)        { *h = append(*h, x.(gacGrant)) }
func (h *grantHeap) Pop() any {
	old := *h
	g := old[len(old)-1]
	*h = old[:len(old)-1]
	return g
}

// BenchmarkGACSubmit measures one reserving admission through the GAC on
// a saturated fleet: Poisson arrivals offering twice the fleet's cache
// ways, 1 core and 2–7 ways for 0.5–1.5 Gcycles, deadlines 1.2/2/3x the
// wall-clock, every grant completed straight on its LAC late in its
// slot (the shape of bench/'s admit tape). At 4 nodes the scan is the
// old probe-everyone loop; at 750 the learned bounds decide how many
// nodes are really asked, which probes/op and peeks/op report next to
// the charged/op a probe-all sweep would have paid.
func BenchmarkGACSubmit(b *testing.B) {
	const twMean = int64(1_000_000_000)
	for _, n := range []int{4, 64, 750} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			lacs := make([]*qos.LAC, n)
			for i := range lacs {
				lacs[i] = qos.NewLAC(qos.ResourceVector{Cores: 4, CacheWays: 16})
			}
			g := qos.NewGAC(lacs...)
			rng := rand.New(rand.NewSource(1))
			gap := float64(twMean) * 4.5 / (16 * float64(n) * 2)
			var live grantHeap
			clock, id := 0.0, 0
			submit := func() {
				clock += rng.ExpFloat64()*gap + 1
				now := int64(clock)
				for len(live) > 0 && live[0].due <= now {
					d := heap.Pop(&live).(gacGrant)
					lacs[d.node].Complete(d.id, qos.Strict(), d.due)
				}
				id++
				tw := twMean/2 + rng.Int63n(twMean)
				rum := qos.RUM{
					Resources:    qos.ResourceVector{Cores: 1, CacheWays: 2 + rng.Intn(6)},
					MaxWallClock: tw,
					Deadline:     now + tw*int64([]int{12, 12, 12, 12, 12, 20, 20, 20, 30, 30}[rng.Intn(10)])/10,
				}
				if node, d := g.Submit(qos.Request{JobID: id, Target: &rum, Mode: qos.Strict(), Arrival: now}); d.Accepted {
					heap.Push(&live, gacGrant{due: d.Start + tw*(7+int64(rng.Intn(4)))/10, id: id, node: node})
				}
			}
			for clock < 1.3*float64(twMean) {
				submit() // warm to a stationary live set
			}
			base := g.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit()
			}
			st := g.Stats()
			b.ReportMetric(float64(st.Charged-base.Charged)/float64(b.N), "charged/op")
			b.ReportMetric(float64(st.Probes-base.Probes)/float64(b.N), "probes/op")
			b.ReportMetric(float64(st.LearningPeeks-base.LearningPeeks)/float64(b.N), "peeks/op")
		})
	}
}

// BenchmarkClusterDispatch measures the GAC fleet at datacenter node
// counts: a full streaming run (bestfit dispatch, calendar stepping)
// with four jobs per node, reporting wall time per arrival. At four jobs
// a node nearly every arrival is a placement, and a placement walks the
// dispatcher's bound rows once in node order (internal/sim/dispatch.go),
// so the cost per arrival grows with the fleet: about flat from 64 to
// 1,000 nodes, about double at 5,000. Saturated rejections, which a row's
// floor answers without a walk, dominate TestClusterDatacenterScale
// instead.
func BenchmarkClusterDispatch(b *testing.B) {
	for _, nodes := range []int{64, 1000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			node := sim.DefaultConfig(sim.Hybrid2, workload.Single("bzip2"))
			node.JobInstr = 2_000_000
			node.StealIntervalInstr = 100_000
			cfg := sim.ClusterConfig{Nodes: nodes, Node: node, AcceptTarget: 4 * nodes}
			arrivals := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cr, err := sim.NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := cr.Run()
				if err != nil {
					b.Fatal(err)
				}
				arrivals += rep.Accepted + rep.RejectedProbes
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
		})
	}
}

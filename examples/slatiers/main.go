// SLA tiers: the paper's intro motivates QoS with utility computing —
// a "gold" client buys guaranteed resources while cheaper tiers accept
// weaker guarantees. This example maps gold/silver/bronze service tiers
// onto the three execution modes and shows what each tier actually gets:
// gold (Strict) and silver (Elastic 5%) meet every deadline with tight
// wall-clock distributions, bronze (Opportunistic) rides leftover
// capacity with no guarantee.
package main

import (
	"fmt"
	"log"

	"cmpqos"
)

func main() {
	// A consolidation-style workload: a cache-hungry database-like job
	// (bzip2 profile) on gold, a compute-heavy scorer (hmmer) on silver,
	// and batch analytics (gobmk) on bronze.
	w := cmpqos.Workload{Name: "sla-tiers"}
	tiers := []struct {
		bench string
		hint  cmpqos.ModeHint
	}{
		{"bzip2", cmpqos.HintStrict},        // gold
		{"hmmer", cmpqos.HintElastic},       // silver
		{"gobmk", cmpqos.HintOpportunistic}, // bronze
	}
	for i := 0; i < 9; i++ {
		t := tiers[i%3]
		w.Jobs = append(w.Jobs, cmpqos.JobTemplate{Benchmark: t.bench, Hint: t.hint})
	}
	// A tenth gold job keeps the composition at the paper's size.
	w.Jobs = append(w.Jobs, cmpqos.JobTemplate{Benchmark: "bzip2", Hint: cmpqos.HintStrict})

	cfg := cmpqos.NewSimConfig(cmpqos.Hybrid2, w)
	cfg.ScaleJobs(20_000_000)

	rep, err := cmpqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	tierOf := func(j cmpqos.JobResult) string {
		switch j.Mode.String() {
		case "Strict":
			return "gold"
		case "Opportunistic":
			return "bronze"
		default:
			return "silver"
		}
	}
	fmt.Println("SLA tier outcomes (Hybrid-2, resource stealing on):")
	fmt.Println("tier    job   benchmark  mode           wall(Mcyc)  deadline-met  ways-stolen")
	for _, j := range rep.Jobs {
		fmt.Printf("%-7s %-5d %-10s %-14s %9.1f  %-12v %d\n",
			tierOf(j), j.ID, j.Benchmark, j.Mode.String(),
			float64(j.WallClock)/1e6, j.Met, j.WaysStolen)
	}
	fmt.Printf("\nreserved-tier deadline hit rate: %.0f%%\n", rep.DeadlineHitRate*100)
	fmt.Printf("silver tier gave up cache worth a %.1f%% miss increase (bounded at 5%%),\n",
		rep.ElasticMissIncrease*100)
	fmt.Printf("slowing it only %.1f%% in CPI — the §4.2 additive-CPI guarantee.\n",
		rep.ElasticCPIIncrease*100)
}

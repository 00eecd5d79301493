// Automatic mode downgrade walkthrough (§3.3–3.4, Figure 7): even when
// every user insists on the Strict mode, the system can transparently
// downgrade jobs whose deadlines have slack — they run opportunistically
// on fragmented resources while a fall-back reservation placed as late
// as possible guarantees the deadline. This example runs All-Strict and
// All-Strict+AutoDown side by side and renders both execution traces.
package main

import (
	"fmt"
	"log"

	"cmpqos"
)

func main() {
	runCfg := func(p cmpqos.Policy) *cmpqos.Report {
		cfg := cmpqos.NewSimConfig(p, cmpqos.SingleWorkload("bzip2"))
		cfg.ScaleJobs(20_000_000)
		rep, err := cmpqos.Simulate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	strict := runCfg(cmpqos.AllStrict)
	auto := runCfg(cmpqos.AllStrictAutoDown)

	fmt.Printf("All-Strict:          %4.0f Mcyc to finish ten jobs (hit rate %.0f%%)\n",
		float64(strict.TotalCycles)/1e6, strict.DeadlineHitRate*100)
	fmt.Print(strict.Gantt(76))

	downs, backs := 0, 0
	for _, j := range auto.Jobs {
		if j.AutoDowngraded {
			downs++
			if j.SwitchedBack {
				backs++
			}
		}
	}
	fmt.Printf("\nAll-Strict+AutoDown: %4.0f Mcyc (hit rate %.0f%%) — %.0f%% faster\n",
		float64(auto.TotalCycles)/1e6, auto.DeadlineHitRate*100,
		(1-float64(auto.TotalCycles)/float64(strict.TotalCycles))*100)
	fmt.Printf("%d jobs transparently downgraded; %d needed their reserved switch-back\n",
		downs, backs)
	fmt.Print(auto.Gantt(76))

	fmt.Println("\nreading the trace: '#' segments run opportunistically on resources")
	fmt.Println("that All-Strict leaves fragmented; '^' marks the switch back to the")
	fmt.Println("reserved Strict timeslot that makes the deadline guarantee hold.")
}

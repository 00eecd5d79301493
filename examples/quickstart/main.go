// Quickstart: run the paper's Hybrid-2 configuration on a ten-job bzip2
// workload and read off the QoS framework's headline result — all
// reserved-mode jobs meet their deadlines while Elastic jobs donate
// stolen cache ways to Opportunistic ones.
package main

import (
	"fmt"
	"log"

	"cmpqos"
)

func main() {
	// The paper's 4-core CMP (2 MB 16-way shared L2, 2 GHz in-order
	// cores) running ten instances of bzip2: 40% Strict, 30% Elastic(5%),
	// 30% Opportunistic.
	cfg := cmpqos.NewSimConfig(cmpqos.Hybrid2, cmpqos.SingleWorkload("bzip2"))
	cfg.ScaleJobs(20_000_000) // scale the paper's 200 M down for a quick demo

	rep, err := cmpqos.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(rep.Summary())
	fmt.Println("per-job outcomes:")
	for _, j := range rep.Jobs {
		fmt.Printf("  job %-4d %-13s wall-clock %4.1f Mcyc  deadline met: %v\n",
			j.ID, j.Mode.String(), float64(j.WallClock)/1e6, j.Met)
	}
	fmt.Println("\nexecution trace:")
	fmt.Print(rep.Gantt(76))
}

package cmpqos_test

import (
	"fmt"

	"cmpqos"
)

// Running the paper's Hybrid-2 configuration end to end: every
// reserved-mode job meets its deadline while Elastic jobs donate stolen
// cache ways to Opportunistic ones.
func ExampleSimulate() {
	cfg := cmpqos.NewSimConfig(cmpqos.Hybrid2, cmpqos.SingleWorkload("bzip2"))
	cfg.ScaleJobs(10_000_000) // scaled for the example
	rep, err := cmpqos.Simulate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("accepted %d jobs, reserved-job deadline hit rate %.0f%%\n",
		len(rep.Jobs), rep.DeadlineHitRate*100)
	// Output:
	// accepted 10 jobs, reserved-job deadline hit rate 100%
}

// Admission control alone, without the simulator: a convertible RUM
// target is accepted; a non-convertible IPC target cannot be.
func ExampleNewNode() {
	node := cmpqos.NewNode(cmpqos.PaperNodeCapacity())
	ok := node.Admit(cmpqos.Request{
		JobID:  1,
		Target: cmpqos.RUM{Resources: cmpqos.PresetMedium(), MaxWallClock: 1000},
		Mode:   cmpqos.Elastic(0.05),
	})
	bad := node.Admit(cmpqos.Request{JobID: 2, Target: cmpqos.OPM{IPC: 0.3}, Mode: cmpqos.Strict()})
	fmt.Println(ok.Accepted, bad.Accepted)
	// Output:
	// true false
}

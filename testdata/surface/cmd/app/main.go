// Command app is the only root of the reachability fixture
// (TestInternalSurfaceFixture in the repository root).
package main

import "fixture/internal/lib"

func main() {
	cfg := lib.DefaultConfig()
	cfg.Assigned = 2
	cfg.Nested.Depth++
	grow(&cfg.Addressed)
	_ = cfg.Unset
	lib.NewLive(cfg, lib.Params{3}).Run()
}

func grow(n *int) { *n *= 2 }

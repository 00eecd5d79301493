// Command app is the only root of the reachability fixture
// (TestInternalSurfaceFixture in the repository root). Its max is the
// planted shadow of a predeclared identifier; its Public alias reaches
// the exported methods of lib.Aliased, which nothing calls by name.
package main

import "fixture/internal/lib"

type Public = lib.Aliased

func main() {
	cfg := lib.DefaultConfig()
	cfg.Assigned = 2
	cfg.Nested.Depth++
	grow(&cfg.Addressed)
	_ = cfg.Unset
	lib.NewLive(cfg, lib.Params{max(3, 1)}).Run()
	lib.NewLive(lib.Config{Keyed: 2, Fixed: 8}, lib.Params{}).Run()
}

func grow(n *int) { *n *= 2 }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

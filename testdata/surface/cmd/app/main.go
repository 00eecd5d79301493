// Command app is the only root of the reachability fixture
// (TestInternalSurfaceFixture in the repository root).
package main

import "fixture/internal/lib"

func main() { lib.NewLive().Run() }

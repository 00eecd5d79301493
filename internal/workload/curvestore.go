package workload

import (
	"cmpqos/internal/cache"
	"cmpqos/internal/parallel"
)

// CurveKey identifies one measured miss curve: the benchmark (name +
// input set pin the profile's regions and stream shape), the cache
// geometry, the stream seeding, and the warmup/measure window. Two
// probes with equal keys are guaranteed to produce identical curves —
// the streams are deterministic in (seed, jobID) — which is what makes
// memoizing them safe.
type CurveKey struct {
	Bench    string
	InputSet string
	Geometry cache.Config
	Seed     int64
	JobID    int
	Warmup   int
	Measure  int
}

// DefaultCurveStore memoizes the curves behind Profile.ProbeCurve and
// Profile.ProbeRatio for the whole process: the parallel experiment pool
// never probes the same (profile, geometry, window) twice, and a curve
// probed for one figure is free for the next. It is process-wide because
// its main caller is sim.New building the trace engine's tw table, and a
// Config is a plain value with nowhere to carry an owner (DESIGN §7.3).
// The returned curves share their backing slice across callers and must
// be treated as read-only; every consumer reads them through
// MissCurve.At.
var DefaultCurveStore parallel.Memo[CurveKey, cache.MissCurve]

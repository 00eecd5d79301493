package fault

import (
	"math"
	"time"

	"cmpqos/internal/splitmix"
)

// DefaultHorizon is the fault-generation window used when the caller
// has no better estimate of the run length: 4 Gcycles covers the
// paper-scale table runs (ten 200 M-instruction jobs) with margin.
// Events past the actual run end simply never fire.
const DefaultHorizon = int64(4_000_000_000)

// Generate builds a random but reproducible plan: fault arrivals are a
// Poisson process with `rate` events per gigacycle over [0, horizon),
// split across the three kinds, with durations scaled to the horizon.
// Pass ways <= 1 to suppress way faults (e.g. for engines that cannot
// model them). The result always passes Validate(cores, ways): events
// that would take the last core or the last way down are dropped rather
// than emitted. The draws come from a SplitMix64 stream, so the same
// (seed, rate, horizon, machine) tuple yields the same plan on every
// platform and at any worker count.
func Generate(seed int64, rate float64, horizon int64, cores, ways int) Plan {
	var p Plan
	if rate <= 0 || horizon <= 0 || cores < 1 {
		return p
	}
	r := splitmix.New(uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	lambda := rate / 1e9 // events per cycle
	at := int64(0)
	for {
		gap := -math.Log(1-float64(r.Float64())) / lambda
		at += int64(gap) + 1
		if at >= horizon {
			return p
		}
		var e Event
		switch pick := r.Float64(); {
		case pick < 0.40 && cores > 1:
			e = Event{
				Kind:     CoreFail,
				At:       at,
				Duration: horizon/32 + int64(r.Float64()*float64(horizon/8)),
				Core:     r.Intn(cores),
			}
			// Never leave zero cores: move to a healthy core, or drop.
			// Feasibility is checked against the WHOLE plan — adding an
			// event also grows the concurrency count of every earlier
			// event it overlaps, so a local check is not enough.
			ok := false
			for try := 0; try < cores; try++ {
				e.Core = (e.Core + try) % cores
				if p.admits(e, cores, ways) {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		case pick < 0.75 && ways > 1:
			e = Event{
				Kind:     WayFault,
				At:       at,
				Duration: horizon/16 + int64(r.Float64()*float64(horizon/8)),
				Ways:     1 + r.Intn(min(4, ways-1)),
			}
			// Shrink to what the concurrent-darkness budget allows.
			for e.Ways >= 1 && !p.admits(e, cores, ways) {
				e.Ways--
			}
			if e.Ways < 1 {
				continue
			}
		default:
			e = Event{
				Kind:     LatencySpike,
				At:       at,
				Duration: horizon/64 + int64(r.Float64()*float64(horizon/16)),
				Factor:   1.5 + float64(2.5*r.Float64()),
			}
		}
		p.Events = append(p.Events, e)
	}
}

// KillTimes draws n reproducible kill instants over (0, horizon) for
// chaos testing long-running processes (qosload -chaos uses it to
// schedule daemon SIGKILLs). The draws are stratified — one uniform
// draw per equal slice of the horizon — so kills spread across the
// whole window instead of clustering, and are returned in increasing
// order. The same (seed, n, horizon) yields the same schedule
// everywhere, like Generate.
func KillTimes(seed int64, n int, horizon time.Duration) []time.Duration {
	if n <= 0 || horizon <= 0 {
		return nil
	}
	r := splitmix.New(uint64(seed)*0x9e3779b97f4a7c15 + 0x1d8e4e27c47d124f)
	slice := float64(horizon) / float64(n)
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration((float64(i) + float64(r.Float64())) * slice)
		if at <= 0 {
			at = 1
		}
		out = append(out, at)
	}
	return out
}

// admits reports whether adding e keeps the plan valid for the machine.
func (p Plan) admits(e Event, cores, ways int) bool {
	t := Plan{Events: append(p.Events[:len(p.Events):len(p.Events)], e)}
	return t.Validate(cores, ways) == nil
}

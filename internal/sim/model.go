package sim

import (
	"cmpqos/internal/cache"
	"cmpqos/internal/cpu"
	"cmpqos/internal/workload"
)

// model abstracts the execution engine: how a job's miss behaviour is
// produced. Both implementations feed the same scheduler, stealing
// controller, and metrics.
type model interface {
	// jobStarted prepares engine state when a job lands on a core.
	jobStarted(j *Job)
	// applyPartition pushes the epoch's core/way assignment into the
	// engine (trace: cache targets and classes).
	applyPartition(jobsByCore [][]*Job, now int64)
	// cpiFor returns the CPI to use for the job this epoch, given the
	// contention-adjusted memory penalty.
	cpiFor(j *Job, memPenalty float64) float64
	// advance retires instr instructions for the job and returns the L2
	// misses and write-back transfers generated; it also updates the
	// job's cumulative Main/Shadow miss counters used by the stealing
	// guard.
	advance(j *Job, instr int64) (misses, writeBacks int64)
	// stealReady reports whether the stealing guard's baseline is
	// trustworthy for this job right now (the trace engine pauses
	// stealing while the shadow array is transiently clamped below the
	// job's original allocation).
	stealReady(j *Job) bool
	// steadyDeltas previews what advance(j, instr) would add to the
	// job's miss counters and the bus, without mutating anything — the
	// per-epoch deltas the event-horizon fast-forward multiplies out.
	// Only an engine that skipOK lets fast-forward is asked.
	steadyDeltas(j *Job, instr int64) (misses, shadow, writeBacks int64)
}

// tableModel drives everything from the calibrated miss curves: the
// job's miss ratio is its curve at its current effective way allocation,
// and the stealing guard's "shadow" count accrues at the original
// allocation's rate.
type tableModel struct{}

func (m *tableModel) jobStarted(*Job) {}

func (m *tableModel) stealReady(*Job) bool { return true }

func (m *tableModel) applyPartition([][]*Job, int64) {}

// phaseScale returns the job's current phase MPI multiplier. Phaseless
// profiles (the common case) answer without the Profile value copy a
// PhaseScale method call costs.
func phaseScale(j *Job) float64 {
	if j.InstrTotal == 0 || len(j.Profile.Phases) == 0 {
		return 1
	}
	return j.Profile.PhaseScale(float64(j.InstrDone) / float64(j.InstrTotal))
}

func (m *tableModel) cpiFor(j *Job, memPenalty float64) float64 {
	// j.mpifCur is the memoized MPIF(WaysF) — the exact bits of the curve
	// interpolation, refreshed whenever the plan assigns ways.
	scale := phaseScale(j)
	return cpu.CPI(j.Profile.CPIL1Inf, j.Profile.L2APA, j.mpifCur*scale, memPenalty)
}

// advance applies what steadyDeltas previews, so the stepped epoch and
// the fast-forward that multiplies it out share one arithmetic.
func (m *tableModel) advance(j *Job, instr int64) (int64, int64) {
	misses, shadow, writeBacks := m.steadyDeltas(j, instr)
	j.MainMisses += misses
	j.ShadowMisses += shadow
	return misses, writeBacks
}

// steadyDeltas: while the plan holds, phaseScale, mpifCur, and mpiRes are
// all fixed, so the quantities are the same every epoch. The shadow
// count of a job that may have ways stolen accrues at its reserved
// allocation's rate.
func (m *tableModel) steadyDeltas(j *Job, instr int64) (int64, int64, int64) {
	scale := phaseScale(j)
	misses := int64(float64(instr) * j.mpifCur * scale)
	shadow := misses
	if j.Stealer != nil {
		shadow = int64(float64(instr) * j.mpiRes * scale)
	}
	return misses, shadow, writeBacks(misses)
}

// writeBacks returns the dirty evictions of a steady epoch's fills: they
// track the store fraction of fills.
func writeBacks(misses int64) int64 {
	return int64(float64(misses) * workload.WriteFraction)
}

// traceAccessShift right-shifts the number of L2 accesses the trace
// model simulates per epoch: it pushes one access in four through the
// cache and scales the misses it counts back up (access sampling).
const traceAccessShift = 2

// traceModel pushes each job's synthetic address stream through the real
// partitioned L2; Elastic jobs are additionally tracked by a duplicate
// tag array with set sampling, exactly as the stealing hardware would.
type traceModel struct {
	frozen  []int // per-core frozen shadow target; -1 when not frozen
	elastic []int // applyPartition scratch, reused every epoch
	cfg     Config
	l2      *cache.Partitioned
	shadow  *cache.ShadowTags
}

func newTraceModel(cfg Config) *traceModel {
	m := &traceModel{
		cfg:     cfg,
		l2:      cache.NewPartitioned(cfg.L2),
		shadow:  cache.NewShadowTags(cfg.L2, sampleEvery),
		frozen:  make([]int, cfg.Cores),
		elastic: make([]int, cfg.Cores),
	}
	for i := range m.frozen {
		m.frozen[i] = -1
	}
	return m
}

func (m *traceModel) jobStarted(j *Job) {
	if j.tr == nil {
		j.tr = &traceState{stream: j.Profile.NewStream(m.cfg.Seed, j.ID)}
	}
	// Initial CPI estimate from the calibrated curve until the first
	// epoch's measurement lands.
	j.tr.lastMissRatio = j.Profile.MissRatioF(j.WaysF)
	if j.Stealer != nil && j.Core >= 0 {
		// Fresh Elastic job on this core: clear its duplicate-tag miss
		// streams; the frozen shadow target is (re)established by the
		// next applyPartition.
		m.shadow.ResetOwner(int(j.Core))
		m.frozen[j.Core] = -1
	}
}

func (m *traceModel) applyPartition(jobsByCore [][]*Job, now int64) {
	// Shadow targets of cores running Elastic jobs stay frozen at the
	// original allocation (that is the whole point of the duplicate
	// tags); everything else mirrors the main array. All targets are
	// zeroed first so the per-set sum constraint is never transiently
	// violated while reassigning.
	elasticWays := m.elastic
	for i := range elasticWays {
		elasticWays[i] = 0
	}
	for c, jobs := range jobsByCore {
		for _, j := range jobs {
			if j.Stealer != nil && j.ReservedRunning(now) {
				elasticWays[c] = int(j.WaysReserved)
			}
		}
	}
	for c := range jobsByCore {
		m.l2.SetTarget(c, 0)
		if elasticWays[c] == 0 {
			m.shadow.SetTarget(c, 0)
			m.frozen[c] = -1
		}
	}
	for c, jobs := range jobsByCore {
		if len(jobs) == 0 {
			m.l2.SetClass(c, cache.ClassNone)
			m.shadow.SetClass(c, cache.ClassNone)
			continue
		}
		reserved := false
		ways := 0
		for _, j := range jobs {
			if j.ReservedRunning(now) {
				reserved = true
				ways = int(j.WaysF)
			}
		}
		if reserved {
			// Clamp so the summed targets can never exceed
			// associativity even if a slow job overruns its reserved
			// timeslot (the hardware equivalent of an overrun is that
			// late allocations shrink).
			if w := m.l2.UnallocatedWays(); ways > w {
				ways = w
			}
			m.l2.SetTarget(c, ways)
			m.l2.SetClass(c, cache.ClassReserved)
			m.shadow.SetClass(c, cache.ClassReserved)
			switch {
			case elasticWays[c] > 0 && m.frozen[c] < 0:
				// Freeze the shadow at the pre-stealing allocation.
				w := elasticWays[c]
				if u := m.shadow.UnallocatedWays(); w > u {
					w = u
				}
				m.shadow.SetTarget(c, w)
				m.frozen[c] = w
			case elasticWays[c] > 0 && m.frozen[c] < elasticWays[c]:
				// A transient overlap clamped the frozen target below
				// the original allocation; heal it as capacity frees.
				w := m.frozen[c] + m.shadow.UnallocatedWays()
				if w > elasticWays[c] {
					w = elasticWays[c]
				}
				m.shadow.SetTarget(c, w)
				m.frozen[c] = w
			case elasticWays[c] == 0:
				// Non-elastic reserved cores are identical in both
				// arrays; only stolen-from cores differ.
				sw := ways
				if u := m.shadow.UnallocatedWays(); sw > u {
					sw = u
				}
				m.shadow.SetTarget(c, sw)
			}
		} else {
			// Opportunistic cores scavenge unallocated ways; target 0.
			m.l2.SetClass(c, cache.ClassOpportunistic)
			m.shadow.SetClass(c, cache.ClassOpportunistic)
		}
	}
}

func (m *traceModel) cpiFor(j *Job, memPenalty float64) float64 {
	h2 := j.Profile.L2APA
	return cpu.CPI(j.Profile.CPIL1Inf, h2, h2*j.tr.lastMissRatio, memPenalty)
}

func (m *traceModel) advance(j *Job, instr int64) (int64, int64) {
	core := int(j.Core) // advanceAll advances only the plan's jobs, each on a core
	nAcc := int64(float64(instr)*j.Profile.L2APA) >> traceAccessShift
	if nAcc <= 0 {
		// Too few accesses to sample this epoch; fall back to the last
		// measured ratio for the miss estimate.
		misses := int64(float64(instr) * j.Profile.L2APA * j.tr.lastMissRatio)
		j.MainMisses += misses
		j.ShadowMisses += misses
		return misses, int64(float64(misses) * workload.WriteFraction)
	}
	var missCount, wbCount int64
	for i := int64(0); i < nAcc; i++ {
		addr := j.tr.stream.Next()
		var res cache.Result
		if j.nextWrite() {
			res = m.l2.Write(core, addr)
		} else {
			res = m.l2.Access(core, addr)
		}
		m.shadow.Observe(core, addr, res)
		if !res.Hit {
			missCount++
		}
		if res.WriteBack {
			wbCount++
		}
	}
	ratio := float64(missCount) / float64(nAcc)
	// EWMA smoothing keeps epoch-to-epoch CPI stable against sampling
	// noise.
	j.tr.lastMissRatio = float64(0.5*j.tr.lastMissRatio) + float64(0.5*ratio)
	misses := missCount << traceAccessShift
	if j.Stealer != nil {
		// The stealing guard compares the sampled-set counters, exactly
		// like the hardware.
		j.MainMisses = m.shadow.MainMisses(core)
		j.ShadowMisses = m.shadow.ShadowMisses(core)
	} else {
		j.MainMisses += misses
		j.ShadowMisses += misses
	}
	return misses, wbCount << traceAccessShift
}

// stealReady reports whether the duplicate tags currently track the
// job's true no-stealing baseline.
func (m *traceModel) stealReady(j *Job) bool {
	return j.Core >= 0 && m.frozen[j.Core] == int(j.WaysReserved)
}

// steadyDeltas: the trace engine's misses come from simulated address
// streams drawn per epoch, so no closed form exists, and skipOK keeps
// the engine from ever asking.
func (m *traceModel) steadyDeltas(*Job, int64) (int64, int64, int64) {
	panic("sim: the trace engine has no steady deltas (skipOK is false for it)")
}

// Way-allocation stage of the policy pipeline: the WayAllocator
// implementations splitting the shared L2 among the
// scheduler's core assignment.
package sim

import "cmpqos/internal/alloc"

// reservedAllocator honors the admission-time reservations: reserved
// jobs get their (possibly stolen-from) reservation; Opportunistic jobs
// share the unallocated pool. A first pass sets the reserved shares and
// sums them into the pool, a second splits the pool; both walk byCore in
// the same order, so the shares are set in the order a list of the
// opportunistic jobs would set them.
type reservedAllocator struct{}

func (reservedAllocator) Allocate(r *Runner, byCore [][]*Job) {
	reservedWays, opps := 0, 0
	for _, jobs := range byCore {
		for _, j := range jobs {
			if !j.ReservedRunning(r.now) {
				opps++
				continue
			}
			w := int(j.WaysReserved)
			if j.Stealer != nil {
				w = j.Stealer.Ways()
			}
			j.setWaysF(float64(w))
			reservedWays += w
		}
	}
	if opps == 0 {
		return
	}
	per := float64(r.cfg.L2.Ways-r.waysDown()-reservedWays) / float64(opps)
	if per < 0.25 {
		per = 0.25 // a thrashing minimum; opportunistic jobs never stop
	}
	for _, jobs := range byCore {
		for _, j := range jobs {
			if !j.ReservedRunning(r.now) {
				j.setWaysF(per)
			}
		}
	}
}

// equalAllocator splits the (non-faulted) cache evenly across the
// (non-faulted) cores — the EqualPart baseline's static partitioning.
type equalAllocator struct{}

func (equalAllocator) Allocate(r *Runner, byCore [][]*Job) {
	per := float64(r.cfg.L2.Ways-r.waysDown()) / float64(r.cfg.Cores-r.downCores())
	for _, jobs := range byCore {
		for _, j := range jobs {
			j.setWaysF(per)
		}
	}
}

// ucpAllocator repartitions the L2 by utility each epoch: one demand
// per busy core (its hungriest job's miss curve), allocated with the
// lookahead greedy of internal/alloc. Idle cores release their share.
// It maximizes aggregate hits and guarantees nothing — the §2 contrast
// the paper draws with reservation-based QoS.
type ucpAllocator struct{}

func (ucpAllocator) Allocate(r *Runner, byCore [][]*Job) {
	var demands []alloc.Demand
	var cores []int
	for c, jobs := range byCore {
		if len(jobs) == 0 {
			continue
		}
		best := jobs[0].Profile
		for _, j := range jobs[1:] {
			if j.Profile.L2APA > best.L2APA {
				best = j.Profile
			}
		}
		demands = append(demands, alloc.Demand{Profile: best.Profile})
		cores = append(cores, c)
	}
	if len(demands) == 0 {
		return
	}
	ways := alloc.UCP(demands, r.cfg.L2.Ways-r.waysDown())
	for i, c := range cores {
		for _, j := range byCore[c] {
			j.setWaysF(float64(ways[i]))
		}
	}
}

package qos

import "cmp"

// Negotiation (§3.1): when no timeslot satisfies a job's QoS target, the
// admission controller can propose an alternative target instead of a
// bare rejection — the user decides whether the alternative is
// acceptable (only the user can judge what fewer ways or a later
// deadline mean for their job; the controller deliberately does not
// guess, which is the convertibility discipline of §3.2).

// Offer is a feasible counter-proposal for a rejected request.
type Offer struct {
	// Resources is the proposed allocation (may be smaller than asked).
	Resources ResourceVector
	// Mode is the proposed execution mode.
	Mode Mode
	// Start is when the proposed reservation would begin.
	Start int64
	// Deadline is the earliest deadline the proposal can honor; when it
	// exceeds the request's deadline the user is being asked to relax.
	Deadline int64
	// Kind names the concession the offer asks for.
	Kind OfferKind
}

// OfferKind enumerates the concession dimensions.
type OfferKind int

const (
	// OfferLaterDeadline keeps the resources, moves the deadline.
	OfferLaterDeadline OfferKind = iota
	// OfferFewerWays keeps the deadline, shrinks the cache request
	// (the job will run slower than its tw assumed — the user must
	// judge acceptability).
	OfferFewerWays
	// OfferOpportunistic reserves nothing.
	OfferOpportunistic
)

// String names the kind.
func (k OfferKind) String() string {
	switch k {
	case OfferLaterDeadline:
		return "later-deadline"
	case OfferFewerWays:
		return "fewer-ways"
	case OfferOpportunistic:
		return "opportunistic"
	}
	return "unknown"
}

// Negotiate computes counter-offers for a request this node rejected, in
// preference order: same resources at the earliest feasible (later)
// deadline; the largest smaller cache request that fits before the
// original deadline; opportunistic execution. It has no side effects;
// the caller resubmits whichever offer the user accepts.
func (l *LAC) Negotiate(req Request) []Offer {
	rum, ok := asRUMRef(req.Target)
	if !ok || !rum.HasTimeslot() {
		return nil
	}
	var offers []Offer

	// (1) Same resources, later deadline: the earliest slot ignoring td.
	if start, ok := l.timeline.EarliestFit(rum.Resources, req.Arrival, rum.MaxWallClock, 0); ok {
		offers = append(offers, Offer{
			Resources: rum.Resources,
			Mode:      req.Mode,
			Start:     start,
			Deadline:  start + rum.MaxWallClock,
			Kind:      OfferLaterDeadline,
		})
	}

	// (2) Fewer ways before the original deadline: largest that fits.
	// Feasibility is downward-closed in ways (a narrower vector fits
	// every window a wider one does), so binary search finds the largest
	// feasible width in O(log ways) fit probes.
	if rum.Deadline != 0 {
		lo, hi := 1, rum.Resources.CacheWays-1
		var best Offer
		found := false
		for lo <= hi {
			mid := (lo + hi) / 2
			vec := rum.Resources
			vec.CacheWays = mid
			if start, ok := l.timeline.EarliestFit(vec, req.Arrival, rum.MaxWallClock, rum.Deadline); ok {
				best = Offer{
					Resources: vec,
					Mode:      req.Mode,
					Start:     start,
					Deadline:  rum.Deadline,
					Kind:      OfferFewerWays,
				}
				found = true
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if found {
			offers = append(offers, best)
		}
	}

	// (3) Opportunistic, if a core is free of reservations now.
	if l.timeline.AvailableAt(req.Arrival).Cores >= 1 {
		offers = append(offers, Offer{
			Resources: rum.Resources,
			Mode:      Opportunistic(),
			Start:     req.Arrival,
			Deadline:  0,
			Kind:      OfferOpportunistic,
		})
	}
	return offers
}

// NegotiateBest probes every node for counter-offers and returns the
// first in CompareOffers order, with the node that made it (the lowest
// such node on a tie).
func (g *GAC) NegotiateBest(req Request) (node int, best Offer, ok bool) {
	node = -1
	for i, lac := range g.nodes {
		for _, off := range lac.Negotiate(req) {
			if !ok || CompareOffers(off, best) < 0 {
				node, best, ok = i, off, true
			}
		}
	}
	return node, best, ok
}

// CompareOffers orders offers by preference, in the form slices.SortFunc
// takes: fewer-concession kinds first, then earlier starts, then more
// ways.
func CompareOffers(a, b Offer) int {
	return cmp.Or(
		cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.Start, b.Start),
		cmp.Compare(b.Resources.CacheWays, a.Resources.CacheWays))
}

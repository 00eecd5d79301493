package qos

import "cmpqos/internal/splitmix"

// naiveGAC is the dispatcher GAC.Submit replaced: it probes every node's
// LAC on every submission, one private loop per strategy. It survives
// only as the reference the differential suite (gac_equivalence_test.go)
// holds the bounded scan to — node, decision and every LAC's charged
// occupancy must match it exactly.
type naiveGAC struct {
	nodes    []*LAC
	strategy Strategy
}

// Submit admits the request and answers the node, the mode it was
// admitted in (the asked mode on rejection) and the decision.
func (g *naiveGAC) Submit(req Request) (node int, mode Mode, dec Decision) {
	switch g.strategy {
	case WorstFit:
		node, dec = g.submitWorstFit(req)
	case Oversub:
		if node, dec = g.submitBestFit(req); dec.Accepted || req.Mode.Kind == KindOpportunistic {
			break
		}
		r := req
		r.Mode = Opportunistic()
		if node, dec = g.submitBestFit(r); dec.Accepted {
			return node, r.Mode, dec
		}
	case Locality:
		// The 16 nodes from the job's hashed home, worked out here rather
		// than by LocalityWindow so the oracle does not share its code.
		home := int(splitmix.Mix(uint64(req.JobID)) % uint64(len(g.nodes)))
		best := -1
		var bestDec Decision
		for k := 0; k < 16 && k < len(g.nodes); k++ {
			i := (home + k) % len(g.nodes)
			if d := g.nodes[i].Probe(req); d.Accepted {
				if best == -1 || d.Start < bestDec.Start {
					best, bestDec = i, d
				}
			}
		}
		if best != -1 {
			node, dec = best, g.nodes[best].Admit(req)
		} else {
			node, dec = g.submitBestFit(req)
		}
	default:
		node, dec = g.submitBestFit(req)
	}
	return node, req.Mode, dec
}

func (g *naiveGAC) submitBestFit(req Request) (node int, dec Decision) {
	best := -1
	var bestDec Decision
	for i, lac := range g.nodes {
		d := lac.Probe(req)
		if !d.Accepted {
			continue
		}
		if best == -1 || d.Start < bestDec.Start {
			best, bestDec = i, d
		}
	}
	if best == -1 {
		return -1, Decision{Reason: "qos: no node can satisfy the QoS target"}
	}
	return best, g.nodes[best].Admit(req)
}

func (g *naiveGAC) submitWorstFit(req Request) (node int, dec Decision) {
	best := -1
	bestLen := 0
	for i, lac := range g.nodes {
		if d := lac.Probe(req); !d.Accepted {
			continue
		}
		if n := lac.timeline.Len(); best == -1 || n < bestLen {
			best, bestLen = i, n
		}
	}
	if best == -1 {
		return -1, Decision{Reason: "qos: no node can satisfy the QoS target"}
	}
	return best, g.nodes[best].Admit(req)
}

func (g *naiveGAC) SubmitOrNegotiate(req Request, maxSlack float64) (node int, finalMode Mode, dec Decision) {
	return negotiate(g.Submit, req, maxSlack)
}

// Package steal implements the resource-stealing controller of paper §4:
// the microarchitecture technique that reclaims excess cache capacity
// from an Elastic(X) job and hands it to Opportunistic jobs, while
// guaranteeing — via the duplicate (shadow) tag comparison — that the
// Elastic job's cumulative L2 miss count does not grow by more than
// about X% versus the no-stealing case. Because CPI is additive in its
// miss component (§4.2), an X% miss bound implies a sub-X% CPI bound.
//
// The controller is a feedback loop evaluated at each repartitioning
// interval (2 M instructions of the Elastic job in the paper):
//
//   - if the cumulative main-tag misses have reached (1+X)× the
//     cumulative duplicate-tag misses, the stealing episode is canceled
//     and ALL stolen ways are returned (§4.3);
//   - otherwise one more way is stolen and handed to Opportunistic jobs.
//
// Miss counts are cumulative since the Elastic job started — they are
// deliberately not reset per interval — so after a rollback the excess
// ratio decays as the job runs at full allocation, and a new stealing
// episode begins once it falls back under X. The loop therefore pins the
// job's total miss increase at ≈X, which is exactly the behaviour Figure
// 8(a) reports ("the increase in miss rate closely tracks the slack").
//
// The controller itself is a pure state machine: the caller feeds it the
// cumulative main- and shadow-tag miss counts plus a pause flag (bus
// saturation, §4.2 footnote 2), and it answers with the action the
// hardware should take. That keeps it independent of the execution
// engine — the same controller drives both the table and trace engines.
package steal

import "fmt"

// Action is the controller's per-interval verdict.
type Action int

const (
	// Hold means leave the partition unchanged this interval.
	Hold Action = iota
	// StealOne means remove one more way from the Elastic job and give
	// it to Opportunistic jobs.
	StealOne
	// Rollback means the miss bound was hit: return all stolen ways to
	// the Elastic job (paper §4.3: "the resource stealing is canceled
	// and all the stolen ways are returned").
	Rollback
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Hold:
		return "hold"
	case StealOne:
		return "steal-one"
	case Rollback:
		return "rollback"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Controller is one Elastic(X) job's stealing state machine.
type Controller struct {
	slack    float64 // X, as a fraction
	origWays int
	curWays  int
	minWays  int
}

// New builds a controller for an Elastic(X) job whose reservation is
// origWays ways. Stealing never reduces the job below minWays (at least
// 1). It panics on nonsensical parameters.
func New(slack float64, origWays, minWays int) *Controller {
	if slack <= 0 || slack > 1 {
		panic(fmt.Sprintf("steal: slack %v out of (0,1]", slack))
	}
	if minWays < 1 || origWays < minWays {
		panic(fmt.Sprintf("steal: invalid ways orig=%d min=%d", origWays, minWays))
	}
	return &Controller{slack: slack, origWays: origWays, curWays: origWays, minWays: minWays}
}

// Ways returns the Elastic job's current way allocation.
func (c *Controller) Ways() int { return c.curWays }

// Stolen returns how many ways are currently reallocated away.
func (c *Controller) Stolen() int { return c.origWays - c.curWays }

// Slack returns the controller's X bound as a fraction.
func (c *Controller) Slack() float64 { return c.slack }

// AtFloor reports whether the current allocation is at the minimum
// ways, where OnInterval can no longer steal (it may still roll back if
// anything is stolen and the bound is hit). The event-horizon
// fast-forward uses Slack/AtFloor/Stolen to prove that every
// repartitioning interval inside a skipped window would return Hold.
func (c *Controller) AtFloor() bool { return c.curWays <= c.minWays }

// ExcessMissRatio is the guard metric: (main − shadow)/shadow, i.e. the
// relative growth in cumulative misses attributable to stealing. Both
// counts are cumulative since the Elastic job started (§4.3).
func ExcessMissRatio(mainMisses, shadowMisses int64) float64 {
	if shadowMisses <= 0 {
		return 0
	}
	return float64(mainMisses-shadowMisses) / float64(shadowMisses)
}

// OnInterval runs one repartitioning decision. mainMisses and
// shadowMisses are the cumulative miss counts of the Elastic job in the
// main and duplicate tag arrays (on the sampled sets); pause inhibits
// new steals without preventing a needed rollback (bus saturation, or an
// engine whose shadow baseline is transiently untrustworthy).
func (c *Controller) OnInterval(mainMisses, shadowMisses int64, pause bool) Action {
	if ExcessMissRatio(mainMisses, shadowMisses) >= c.slack {
		if c.Stolen() > 0 {
			// Cancel this stealing episode: return everything. A new
			// episode starts once the cumulative excess decays under X.
			c.curWays = c.origWays
			return Rollback
		}
		// Nothing is stolen, so the excess is not stealing's doing
		// (e.g. co-runner interference on the sampled sets); do not
		// start an episode while over the bound.
		return Hold
	}
	if pause {
		return Hold
	}
	if c.curWays <= c.minWays {
		return Hold
	}
	c.curWays--
	return StealOne
}

// Shed permanently surrenders up to n ways of the RESERVATION itself —
// the fault path, where darkened cache ways force the Elastic job's
// allocation down. Unlike stealing, shed ways are not returned by a
// rollback: the original allocation shrinks too, so a later Rollback
// restores only what the reservation still holds. The floor is
// minWays. Returns how many ways were actually shed.
func (c *Controller) Shed(n int) int {
	if n <= 0 {
		return 0
	}
	// New and every Shed keep origWays ≥ minWays, so shed ≥ 0, and
	// shedding 0 changes nothing.
	shed := min(c.origWays-c.minWays, n)
	c.origWays -= shed
	if c.curWays > c.origWays {
		c.curWays = c.origWays
	}
	return shed
}

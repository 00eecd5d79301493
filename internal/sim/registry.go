package sim

import (
	"fmt"
	"sort"

	"cmpqos/internal/qos"
)

// The policy tables turn the engine into a pluggable pipeline: a
// Scheduler assigns running jobs to cores, a WayAllocator splits the L2
// among them, and a Controller closes the loop over measured progress.
// Each stage is selected by name through Config (empty names resolve to
// the Policy-appropriate defaults, preserving the paper's behaviour bit
// for bit), so a new policy — the next coordinated-management or SLO
// paper — is a table entry plus an implementation, not another branch
// inside the epoch loop. The tables are read-only, which keeps
// concurrent runs (sim.RunAll) lock-free.

// Scheduler assigns running jobs to cores for one epoch. Assign returns
// the per-core job lists (the runner's reusable scratch; nothing may
// retain them past the epoch) and must be a deterministic pure function
// of the runner's job/fault state — the epoch-plan cache replays its
// result verbatim between QoS events.
type Scheduler interface {
	Assign(r *Runner) [][]*Job
}

// WayAllocator sets each running job's effective L2 way share for the
// epoch, given the scheduler's core assignment. Implementations must
// assign through Job.setWaysF (which refreshes the memoized curve
// lookup) and be deterministic for the same reason as Scheduler.
type WayAllocator interface {
	Allocate(r *Runner, byCore [][]*Job)
}

var (
	// Schedulers and allocators are stateless values every node shares;
	// only a controller reads the Config and keeps state of its own.
	schedulers = map[string]Scheduler{
		"reserved": reservedScheduler{},
		"packed":   reservedScheduler{packOpp: true},
		"shared":   sharedScheduler{},
	}
	allocators = map[string]WayAllocator{
		"reserved": reservedAllocator{},
		"equal":    equalAllocator{},
		"ucp":      ucpAllocator{},
	}
	// A controller constructor may return nil: "static", the open-loop
	// default, has no controller object at all, so the engine runs no
	// controller code.
	controllers = map[string]func(Config) Controller{
		"static": func(Config) Controller { return nil },
		"pid": func(c Config) Controller {
			return &pidController{maxBoost: c.L2.Ways / 4, maxHeadroom: c.L2.Ways / 4}
		},
		"aimd": func(c Config) Controller {
			return &aimdController{maxBoost: c.L2.Ways / 4, maxHeadroom: c.L2.Ways / 4}
		},
	}
)

// SchedulerNames lists the schedulers, sorted.
func SchedulerNames() []string { return policyNames(schedulers) }

// AllocatorNames lists the way allocators, sorted.
func AllocatorNames() []string { return policyNames(allocators) }

// ControllerNames lists the feedback controllers, sorted.
func ControllerNames() []string { return policyNames(controllers) }

func policyNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// schedulerName resolves the configured scheduler, defaulting by
// policy: admissionless baselines timeshare like a default OS scheduler
// ("shared"); QoS policies pin reserved jobs ("reserved").
func (c Config) schedulerName() string {
	if c.Scheduler != "" {
		return c.Scheduler
	}
	if c.Policy.noAdmission() {
		return "shared"
	}
	return "reserved"
}

// allocatorName resolves the configured way allocator, defaulting by
// policy: EqualPart splits evenly, UCP-Part repartitions by utility,
// QoS policies honor reservations.
func (c Config) allocatorName() string {
	if c.Allocator != "" {
		return c.Allocator
	}
	switch c.Policy {
	case EqualPart:
		return "equal"
	case UCPPart:
		return "ucp"
	}
	return "reserved"
}

// controllerName resolves the configured feedback controller; the
// default "static" is the open-loop pipeline.
func (c Config) controllerName() string {
	if c.Controller != "" {
		return c.Controller
	}
	return "static"
}

// newController builds the configuration's controller; Config.Validate
// has checked the name.
func newController(cfg Config) Controller { return controllers[cfg.controllerName()](cfg) }

// ValidateNames checks explicitly selected names — the pipeline stages,
// the feedback controller and the cluster dispatcher — against their
// tables (empty selects the default and is always valid). CLIs call it
// at flag-parse time so a typo is a usage error, not a mid-run failure.
func ValidateNames(scheduler, allocator, controller, dispatcher string) error {
	if _, ok := schedulers[scheduler]; scheduler != "" && !ok {
		return fmt.Errorf("unknown scheduler %q (have %v)", scheduler, SchedulerNames())
	}
	if _, ok := allocators[allocator]; allocator != "" && !ok {
		return fmt.Errorf("unknown allocator %q (have %v)", allocator, AllocatorNames())
	}
	if _, ok := controllers[controller]; controller != "" && !ok {
		return fmt.Errorf("unknown controller %q (have %v)", controller, ControllerNames())
	}
	if _, err := qos.ParseStrategy(dispatcher); err != nil {
		return fmt.Errorf("unknown dispatcher %q (have %v)", dispatcher, qos.StrategyNames())
	}
	return nil
}

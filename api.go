// Package cmpqos is a library reproduction of "A Framework for Providing
// Quality of Service in Chip Multi-Processors" (Guo, Solihin, Zhao, Iyer
// — MICRO 2007).
//
// It provides, as reusable Go components:
//
//   - the QoS framework itself: convertible Resource Usage Metrics
//     targets, the Strict/Elastic(X)/Opportunistic execution modes,
//     manual and automatic mode downgrade, a reservation timeline, and
//     local/global admission controllers;
//   - the microarchitecture substrate: a set-associative shared cache
//     with per-set way partitioning and QoS-aware victim selection,
//     duplicate (shadow) tag arrays with set sampling, and the
//     resource-stealing controller;
//   - a discrete-event 4-core CMP simulator with two execution engines
//     (calibrated miss-curve tables, or synthetic address traces through
//     the real cache model), fifteen SPEC2006-like workload profiles,
//     and the paper's five evaluation configurations;
//   - runners that regenerate every table and figure of the paper's
//     evaluation.
//
// This file is the public facade: it re-exports the stable surface of
// the internal packages so downstream users never import internal paths.
package cmpqos

import (
	"io"

	"cmpqos/internal/experiments"
	"cmpqos/internal/qos"
	"cmpqos/internal/sim"
	"cmpqos/internal/workload"
)

// ---- QoS framework (the paper's core contribution) ----

// Re-exported QoS types; see internal/qos for full documentation.
type (
	// ResourceVector is a quantity of CMP computation capacity.
	ResourceVector = qos.ResourceVector
	// Target is a QoS target specification (RUM, OPM, or RPM).
	Target = qos.Target
	// RUM is the convertible Resource Usage Metrics target.
	RUM = qos.RUM
	// OPM is the non-convertible IPC target (rejected by admission).
	OPM = qos.OPM
	// RPM is the non-convertible miss-rate target (rejected too).
	RPM = qos.RPM
	// Mode is one of the three execution modes.
	Mode = qos.Mode
	// Request is an admission request.
	Request = qos.Request
	// Decision is an admission decision.
	Decision = qos.Decision
	// AdmissionController is the per-node Local Admission Controller.
	AdmissionController = qos.LAC
	// Cluster is the Global Admission Controller over several nodes.
	Cluster = qos.GAC
	// ClusterStats is Cluster.Stats(): the placement work behind Submit.
	ClusterStats = qos.GACStats
	// Timeline is the resource reservation timeline.
	Timeline = qos.Timeline
)

// Mode constructors.
var (
	// Strict reserves resources and timeslot exactly.
	Strict = qos.Strict
	// Elastic tolerates up to X fractional slowdown.
	Elastic = qos.Elastic
	// Opportunistic reserves nothing and scavenges spare capacity.
	Opportunistic = qos.Opportunistic
)

// ErrNotConvertible is returned for OPM/RPM targets (Definition 1).
var ErrNotConvertible = qos.ErrNotConvertible

// NewNode builds a Local Admission Controller for one CMP node. The
// paper's node is NewNode(PaperNodeCapacity()).
func NewNode(capacity ResourceVector, opts ...qos.LACOption) *AdmissionController {
	return qos.NewLAC(capacity, opts...)
}

// NodeOption configures a node; see WithAutoDowngrade and friends.
type NodeOption = qos.LACOption

// Node options.
var (
	// WithAutoDowngrade enables transparent automatic mode downgrade.
	WithAutoDowngrade = qos.WithAutoDowngrade
	// WithAutoDowngradeMinSlack gates downgrades on deadline slack.
	WithAutoDowngradeMinSlack = qos.WithAutoDowngradeMinSlack
	// WithOpportunisticPerCore caps opportunistic pins per free core.
	WithOpportunisticPerCore = qos.WithOpportunisticPerCore
)

// NewCluster builds a Global Admission Controller over CMP nodes.
func NewCluster(nodes ...*AdmissionController) *Cluster { return qos.NewGAC(nodes...) }

// Negotiation types (§3.1 counter-offers for rejected requests).
type (
	// Offer is a feasible counter-proposal from an admission controller.
	Offer = qos.Offer
	// OfferKind names the concession an offer asks for.
	OfferKind = qos.OfferKind
)

// Offer kinds.
const (
	OfferLaterDeadline = qos.OfferLaterDeadline
	OfferFewerWays     = qos.OfferFewerWays
	OfferOpportunistic = qos.OfferOpportunistic
)

// PaperNodeCapacity returns the evaluation node's capacity: 4 cores and
// 16 L2 ways.
func PaperNodeCapacity() ResourceVector { return ResourceVector{Cores: 4, CacheWays: 16} }

// Preset RUM resource vectors (§3.2).
var (
	// PresetSmall is 1 core / 4 ways.
	PresetSmall = qos.PresetSmall
	// PresetMedium is the paper's request: 1 core / 7 ways.
	PresetMedium = qos.PresetMedium
	// PresetLarge is 2 cores / 10 ways.
	PresetLarge = qos.PresetLarge
)

// ---- Simulation ----

// Re-exported simulator types; see internal/sim.
type (
	// SimConfig parameterizes one simulation run.
	SimConfig = sim.Config
	// Policy is a Table 2 evaluation configuration.
	Policy = sim.Policy
	// Engine selects the execution model (table or trace).
	Engine = sim.Engine
	// Report is a finished run's results.
	Report = sim.Report
	// JobResult is one job's outcome row.
	JobResult = sim.JobResult
)

// Policies (Table 2).
const (
	AllStrict         = sim.AllStrict
	Hybrid1           = sim.Hybrid1
	Hybrid2           = sim.Hybrid2
	AllStrictAutoDown = sim.AllStrictAutoDown
	EqualPart         = sim.EqualPart
)

// Engines.
const (
	EngineTable = sim.EngineTable
	EngineTrace = sim.EngineTrace
)

// Workload composition types; see internal/workload.
type (
	// Workload is a 10-job composition.
	Workload = workload.Composition
	// JobTemplate is one composition entry.
	JobTemplate = workload.JobTemplate
	// ModeHint is a job's preferred mode within a composition.
	ModeHint = workload.ModeHint
	// Profile is a benchmark's calibrated model.
	Profile = workload.Profile
)

// Mode hints.
const (
	HintStrict        = workload.HintStrict
	HintElastic       = workload.HintElastic
	HintOpportunistic = workload.HintOpportunistic
)

// Workload constructors.
var (
	// SingleWorkload is ten instances of one benchmark.
	SingleWorkload = workload.Single
	// Mix1 is Table 3's stealing-favourable mix.
	Mix1 = workload.Mix1
	// Mix2 is Table 3's unfavourable mix.
	Mix2 = workload.Mix2
	// Benchmarks lists the fifteen SPEC2006-like profiles.
	Benchmarks = workload.Profiles
	// BenchmarkByName looks a profile up.
	BenchmarkByName = workload.ByName
)

// Phase scales a job's miss behaviour over part of its run (§3.1's
// dynamic behaviour; see Profile.WithPhases).
type Phase = workload.Phase

// Cluster-simulation types (the paper's Figure 2 environment).
type (
	// ClusterSimConfig parameterizes a multi-node GAC-fronted run.
	ClusterSimConfig = sim.ClusterConfig
	// ClusterReport aggregates a cluster run.
	ClusterReport = sim.ClusterReport
)

// SimulateCluster runs a GAC-fronted multi-node simulation.
func SimulateCluster(cfg ClusterSimConfig) (*ClusterReport, error) {
	cr, err := sim.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return cr.Run()
}

// NewSimConfig returns the paper's evaluation configuration (§6) for a
// policy and workload: table engine, 200 M instructions per job.
func NewSimConfig(p Policy, w Workload) SimConfig { return sim.DefaultConfig(p, w) }

// NewTraceSimConfig returns a configuration that executes through the
// real cache model with synthetic address traces (scaled down).
func NewTraceSimConfig(p Policy, w Workload) SimConfig { return sim.TraceConfig(p, w) }

// Simulate runs one configuration to completion.
func Simulate(cfg SimConfig) (*Report, error) {
	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// ---- Experiments (paper tables & figures) ----

// ExperimentOptions configures an experiment run.
type ExperimentOptions = experiments.Options

// Experiments returns every paper table/figure runner.
func Experiments() []experiments.Runner { return experiments.Registry() }

// RunExperiment regenerates one named table or figure, writing its text
// rendition to w. Each call simulates every run it needs: the run cache
// that lets qossim share runs across experiments is internal to this
// module, so calls share nothing.
func RunExperiment(name string, o ExperimentOptions, w io.Writer) error {
	r, ok := experiments.Lookup(name)
	if !ok {
		return errUnknownExperiment(name)
	}
	return r.Run(o, w)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "cmpqos: unknown experiment " + string(e)
}

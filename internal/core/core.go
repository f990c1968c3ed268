// Package core is the public face of the reproduction: it composes a
// simulated Paragon, one of the paper's three application skeletons, the
// Pablo instrumentation, optional PPFS policies, and the analysis tools into
// a single Run call that yields every table and figure of the paper for that
// application.
package core

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/collective"
	"repro/internal/fault"
	"repro/internal/ionode"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/ppfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Study describes one characterization run.
type Study struct {
	// App is the application and its configuration; it also sizes the
	// machine's compute partition.
	App     workload.AppConfig
	Machine workload.MachineConfig

	// Policy, when non-nil, routes the application through a PPFS layer
	// with these policies (the §5.2 experiment); nil runs on raw PFS.
	Policy *ppfs.Policy

	// Burst, when enabled, interposes the per-compute-node burst-buffer
	// tier between the application and the PFS (checkpoint and M_LOG
	// writes commit locally and drain in the background). Mutually
	// exclusive with Policy — both are client-side layers over the same
	// seam.
	Burst burst.Config

	// KeepTrace buffers the full event trace (needed for figures); when
	// false only real-time reductions run (Pablo's low-perturbation mode).
	KeepTrace bool

	// WindowWidth sets the time-window reduction granularity (default 10s).
	WindowWidth sim.Time

	// Faults is the chaos schedule injected into the machine. The zero
	// plan injects nothing and leaves the run bit-identical to a build
	// without the fault subsystem. FaultSeed seeds the plan's random
	// choices (exponential arrivals, AnyNode targets).
	Faults    fault.Plan
	FaultSeed uint64
}

// PaperStudy returns the study reproducing the paper's traced run of app;
// an unknown app gives a study without an app, which Run rejects.
func PaperStudy(app AppID) Study {
	s := Study{KeepTrace: true}
	if p := paperOf(app); p != nil {
		s.App, s.Machine = p.Config(), p.Machine()
	}
	return s
}

// SmallStudy returns a fast, reduced-scale study of app (for tests and the
// quickstart example).
func SmallStudy(app AppID) Study {
	s := PaperStudy(app)
	if p := paperOf(app); p != nil {
		s.App = p.Small()
	}
	return s
}

// Report is the outcome of a study: the captured traces plus the derived
// tables and reductions.
type Report struct {
	App  AppID // the built app's Name
	Wall sim.Time

	// Events is the application-visible trace. Physical counts the
	// requests the PFS served: without a PPFS policy layer, the same
	// operations Events records when the trace is kept.
	Events   []iotrace.Event
	Physical OpCounts

	Summary analysis.OpSummary
	Sizes   analysis.SizeTable

	Lifetime *pablo.LifetimeReducer
	Windows  *pablo.WindowReducer

	// PolicyStats is non-nil when the study ran through PPFS.
	PolicyStats *ppfs.Stats

	// Incidents is the realized fault timeline (empty without a fault
	// plan); Failover the PFS failover counters.
	Incidents []fault.Incident
	Failover  pfs.FailoverStats

	// Repair holds the replication repair control plane's counters (all
	// zeros when it is off); ReplicationFactor the effective copies per
	// chunk (1 = no replication).
	Repair            pfs.RepairStats
	ReplicationFactor int
	repairOn          bool

	// Cache is the I/O-node cache effectiveness report; nil when the
	// study ran without caching.
	Cache *analysis.CacheReport

	// Integrity is the end-to-end data-integrity report; nil when the
	// study ran without the checksum layer.
	Integrity *analysis.IntegrityReport

	// Collective holds the two-phase aggregation counters; nil when the
	// study ran without collective I/O.
	Collective *collective.Stats

	// Burst is the burst-tier report; nil when the study ran without the
	// tier.
	Burst *analysis.BurstReport

	// Sched is the per-I/O-node disk-scheduler report; empty when the nodes
	// ran the legacy FIFO queue.
	Sched []ionode.SchedStats

	// PhysRequests counts the physical array requests the I/O nodes served —
	// the quantity collective aggregation collapses.
	PhysRequests int64

	// phases partitions Events by phase on first use; see phaseEvents.
	phases phaseIndex
}

// OpCounts reduces a request stream per operation class: how many
// operations, the bytes they moved, and their summed node time.
type OpCounts struct {
	Count [iotrace.NumOps]int64
	Bytes [iotrace.NumOps]int64
	Time  [iotrace.NumOps]sim.Time
}

// Run executes the study to completion. With a fault plan configured the run
// is a single attempt: an injected fault the application cannot absorb (via
// PFS failover) surfaces as an error, exactly like the real machine's job
// kill. Use RunResilient for checkpoint/restart semantics.
func Run(s Study) (*Report, error) {
	s, rt, err := prepare(s, nil)
	if err != nil {
		return nil, err
	}
	rt.arm(s, planEvents(s), 0)
	runErr := rt.run(0)
	if err := rt.jobErr(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return finishReport(s, rt), nil
}

// RenderSubsystems formats the sections of the optional subsystems the study
// ran with, in one fixed order (cache, collective I/O, disk scheduling, burst
// tier, integrity), each followed by a blank line.
func (r *Report) RenderSubsystems() string {
	var b strings.Builder
	if r.Cache != nil {
		fmt.Fprintln(&b, analysis.RenderCacheReport(r.Cache))
	}
	if r.Collective != nil {
		fmt.Fprintln(&b, analysis.RenderCollectiveReport(r.Collective))
	}
	if len(r.Sched) > 0 {
		fmt.Fprintln(&b, analysis.RenderSchedReport(r.Sched))
	}
	if r.Burst != nil {
		fmt.Fprintln(&b, analysis.RenderBurstReport(r.Burst))
	}
	if r.Integrity != nil {
		fmt.Fprintln(&b, analysis.RenderIntegrityReport(r.Integrity))
	}
	return b.String()
}

// PhaseSummary computes the operation summary for one application phase
// (HTF's per-program tables are phase summaries); PhaseNone is the whole run.
func (r *Report) PhaseSummary(phase iotrace.Phase) analysis.OpSummary {
	return phaseOr(r, phase, r.Summary, analysis.Summarize)
}

// PhaseSizes computes the size-bucket table for one phase; PhaseNone is the
// whole run.
func (r *Report) PhaseSizes(phase iotrace.Phase) analysis.SizeTable {
	return phaseOr(r, phase, r.Sizes, analysis.Sizes)
}

// Purposes classifies every file of the run into the §2 taxonomy
// (compulsory input/output, checkpoint, out-of-core).
func (r *Report) Purposes() []analysis.FilePurpose {
	return analysis.ClassifyPurposes(r.Events)
}

// PatternSummary aggregates the run's per-stream access patterns — the §10
// conclusions (sequentiality, fixed request sizes, open-access-close
// cycles).
func (r *Report) PatternSummary() analysis.PatternSummary {
	return analysis.SummarizePatterns(analysis.Patterns(r.Events))
}

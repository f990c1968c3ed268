// Package iochar is the public API of this reproduction of "Input/Output
// Characteristics of Scalable Parallel Applications" (Crandall, Aydt, Chien,
// Reed; Supercomputing '95).
//
// It re-exports the characterization surface from the internal packages: a
// Study composes a simulated Intel Paragon XP/S with PFS, one of the paper's
// three application skeletons (ESCAT, RENDER, HTF), Pablo-style
// instrumentation, and optional PPFS client policies; Run produces a Report
// from which every table and figure of the paper regenerates.
//
// Quick start:
//
//	report, err := iochar.Run(iochar.PaperStudy(iochar.ESCAT))
//	if err != nil { ... }
//	for _, table := range report.Tables() {
//	    fmt.Println(table)
//	}
package iochar

import (
	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ionode"
	"repro/internal/ppfs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// AppID names one of the characterized applications.
type AppID = core.AppID

// The three applications of the paper's initial SIO code suite.
const (
	ESCAT  = core.ESCAT
	RENDER = core.RENDER
	HTF    = core.HTF
)

// Study describes one characterization run; see core.Study.
type Study = core.Study

// Report is a completed run's traces, tables and reductions.
type Report = core.Report

// Policy selects PPFS client-side behaviors for policy studies: every PPFS
// run uses the §5.2 configuration, and Policy.Adaptive lets the access-pattern
// classifier turn prefetching and write-behind off per stream.
type Policy = ppfs.Policy

// CrossoverModel is the §7.2 recompute-vs-reread analysis.
type CrossoverModel = core.CrossoverModel

// PaperStudy returns the study reproducing the paper's traced run of app.
func PaperStudy(app AppID) Study { return core.PaperStudy(app) }

// SmallStudy returns a fast, reduced-scale study of app.
func SmallStudy(app AppID) Study { return core.SmallStudy(app) }

// Run executes a study to completion.
func Run(s Study) (*Report, error) { return core.Run(s) }

// DefaultPolicy returns the §5.2 experiment's PPFS policies (write-behind,
// aggregation, caching, sequential prefetch).
func DefaultPolicy() Policy { return ppfs.DefaultPolicy() }

// DefaultCrossoverModel returns the paper-calibrated §7.2 parameters.
func DefaultCrossoverModel() CrossoverModel { return core.DefaultCrossoverModel() }

// Fault injection & resilience (the chaos side of the machine model).

// Time is the simulated clock's type; Seconds converts wall seconds into it.
type Time = sim.Time

// Seconds converts a duration in seconds to simulated Time.
func Seconds(s float64) Time { return sim.FromSeconds(s) }

// FaultPlan is a declarative chaos schedule; the zero plan injects nothing.
type FaultPlan = fault.Plan

// FaultEvent and FaultCascade are a plan's building blocks: fixed events and
// correlated multi-node cascades.
type (
	FaultEvent   = fault.Event
	FaultCascade = fault.Cascade
)

// Fault kinds.
const (
	DiskFailure  = fault.DiskFailure
	IONodeOutage = fault.IONodeOutage
)

// CheckpointConfig is the coordinated checkpoint policy for resilient runs.
type CheckpointConfig = ckpt.Config

// ResilientStudy is a Study run under its fault plan with restart-from-
// checkpoint semantics; ResilientReport its outcome.
type (
	ResilientStudy  = core.ResilientStudy
	ResilientReport = core.ResilientReport
)

// ResilienceReport is the analysis-layer resilience summary; render it with
// RenderResilience.
type ResilienceReport = analysis.ResilienceReport

// RunResilient executes the study under its fault plan, restarting from the
// last committed checkpoint after each fatal fault.
func RunResilient(rs ResilientStudy) (*ResilientReport, error) { return core.RunResilient(rs) }

// RenderResilience formats a resilience summary as text.
func RenderResilience(r ResilienceReport) string { return analysis.RenderResilience(r) }

// I/O-node caching (the §8 what-if: PFS had no cache between the request
// queue and the arrays).

// CacheConfig configures the per-I/O-node block cache: capacity, write-behind,
// pattern-driven prefetch, and the outage policy for dirty blocks. Blocks are
// one stripe unit. Set it as Study.Machine.PFS.Cache.
type CacheConfig = cache.Config

// CacheComparison is one workload's cached-versus-uncached outcome.
type CacheComparison = analysis.CacheComparison

// DefaultCacheConfig returns the default cache policy: 8 MB per node,
// stripe-unit blocks, write-behind, prefetch depth 4.
func DefaultCacheConfig() CacheConfig { return cache.DefaultConfig() }

// CacheSweep runs the three applications cached and uncached and reports the
// mean read-latency change per application.
func CacheSweep(small bool, ccfg CacheConfig) ([]CacheComparison, error) {
	return core.CacheSweep(small, ccfg)
}

// ModeCacheSweep compares cached against uncached synthetic runs under all
// six PFS access modes plus a random-read control.
func ModeCacheSweep(ccfg CacheConfig) ([]CacheComparison, error) {
	return core.ModeCacheSweep(ccfg)
}

// RenderCacheSweep formats a cached-versus-uncached comparison table.
func RenderCacheSweep(title string, rows []CacheComparison) string {
	return analysis.RenderCacheSweep(title, rows)
}

// Host-side burst buffering: a per-compute-node log tier between the
// application and the PFS, absorbing checkpoint and M_LOG writes at local
// bandwidth and draining them asynchronously through a modeled compression
// stage.

// BurstConfig parameterizes the burst tier (set as Study.Burst; mutually
// exclusive with a PPFS Policy — both are client-side layers over the same
// seam). BurstCompressConfig is its drain-stage compression ratio.
type (
	BurstConfig         = burst.Config
	BurstCompressConfig = burst.CompressConfig
)

// BurstReport is a run's burst-tier section (Report.Burst carries it when the
// study ran with the tier); BurstComparison one application's direct-versus-
// tier outcome.
type (
	BurstReport     = analysis.BurstReport
	BurstComparison = analysis.BurstComparison
)

// DefaultBurstConfig returns the default tier: a 64 MB node log committing at
// 400 MB/s with 1.8x compression on the drain path.
func DefaultBurstConfig() BurstConfig { return burst.DefaultConfig() }

// BurstSweep runs the three applications direct and through the tier under
// one checkpoint policy and reports the makespan and checkpoint-stall change.
func BurstSweep(small bool, ck CheckpointConfig, bcfg BurstConfig) ([]BurstComparison, error) {
	return core.BurstSweep(small, ck, bcfg)
}

// RenderBurstReport formats a run's burst-tier section as text.
func RenderBurstReport(r *BurstReport) string { return analysis.RenderBurstReport(r) }

// RenderBurstSweep formats a direct-versus-tier comparison table.
func RenderBurstSweep(title string, rows []BurstComparison) string {
	return analysis.RenderBurstSweep(title, rows)
}

// Two-phase collective I/O and disk scheduling (the paper's §10 call for
// collective interfaces, plus the arrays' elevator what-if).

// CollectiveConfig enables two-phase aggregation of round-structured
// M_RECORD/M_SYNC traffic (set as Study.Machine.PFS.Collective).
type CollectiveConfig = collective.Config

// CollectiveStats counts a run's collective rounds, the logical-to-physical
// request collapse, and the shuffle traffic; Report.Collective carries it.
type CollectiveStats = collective.Stats

// SchedConfig selects the per-I/O-node disk-scheduling policy — fcfs, cscan,
// sstf, or random — with an anticipatory batching window (set as
// Study.Machine.PFS.Sched). The zero value keeps the legacy FIFO queue.
type SchedConfig = ionode.SchedConfig

// CollectiveComparison is one workload's collective-versus-direct outcome.
type CollectiveComparison = analysis.CollectiveComparison

// DefaultSchedWindow is the default anticipatory batching bound for named
// scheduling policies.
const DefaultSchedWindow = ionode.DefaultWindow

// CollectiveSweep runs the three applications with and without collective
// aggregation and reports the physical-request and makespan change.
func CollectiveSweep(small bool, ccfg CollectiveConfig, sched SchedConfig) ([]CollectiveComparison, error) {
	return core.CollectiveSweep(small, ccfg, sched)
}

// ModeCollectiveSweep compares collective against direct synthetic runs under
// all six PFS access modes (only the round-structured M_RECORD and M_SYNC
// modes aggregate; the rest pass through unchanged as controls).
func ModeCollectiveSweep(ccfg CollectiveConfig, sched SchedConfig) ([]CollectiveComparison, error) {
	return core.ModeCollectiveSweep(ccfg, sched)
}

// RenderCollectiveReport formats a run's collective-aggregation section,
// including the logical-versus-physical request-size histogram.
func RenderCollectiveReport(st *CollectiveStats) string { return analysis.RenderCollectiveReport(st) }

// RenderCollectiveSweep formats a collective-versus-direct comparison table.
func RenderCollectiveSweep(title string, rows []CollectiveComparison) string {
	return analysis.RenderCollectiveSweep(title, rows)
}

// The declarative scenario DSL: YAML/JSON files describing a generated
// (possibly heterogeneous) fleet, a workload, a chaos schedule, and
// first-class assertions — versioned, replayable what-ifs. See the
// "Scenarios" section of the README and `stress scenario run`.

// Scenario is one parsed scenario file.
type Scenario = scenario.Scenario

// ParseScenario decodes and validates a scenario from YAML or JSON bytes.
func ParseScenario(data []byte, path string) (*Scenario, error) { return scenario.Parse(data, path) }

// RenderScenarioChecks formats the assertion verdict section.
func RenderScenarioChecks(name string, m scenario.Measurements, checks []scenario.Check) string {
	return scenario.RenderChecks(name, m, checks)
}

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
// What belongs to one application stays in its package under internal/apps:
// ESCAT's Figure 4 burst spacing (escat.WriteBurstTrend), RENDER's
// initialization read throughput (render.InitReadThroughput) and HTF's §7.2
// recompute-versus-reread crossover model (htf.CrossoverModel).
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
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
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

// PaperStudy returns the study reproducing the paper's traced run of app.
func PaperStudy(app AppID) Study { return core.PaperStudy(app) }

// SmallStudy returns a fast, reduced-scale study of app.
func SmallStudy(app AppID) Study { return core.SmallStudy(app) }

// Run executes a study to completion.
func Run(s Study) (*Report, error) { return core.Run(s) }

// DefaultPolicy returns the §5.2 experiment's PPFS policies (write-behind,
// aggregation, caching, sequential prefetch).
func DefaultPolicy() Policy { return ppfs.DefaultPolicy() }

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

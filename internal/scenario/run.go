package scenario

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Result is one executed scenario: the run's report, the measured
// quantities, and the assertion verdict.
type Result struct {
	Scenario *Scenario
	Fleet    *Fleet

	// Report is the resilience driver's report; non-nil even when the run
	// exhausted its attempts. RunErr is the driver's completion error. For
	// a multi-cell scenario it is the fleet report adapted to the same
	// shape (see FleetResilientReport) and FleetRun carries the original.
	Report *core.ResilientReport
	RunErr error

	// FleetRun is the fleet report for scenarios with
	// fleet_gen.cells > 1; nil for single-machine runs.
	FleetRun *core.FleetReport

	M      Measurements
	Checks []Check
}

// Pass reports the scenario's verdict: every configured assertion holds.
// Scenarios without assertions pass whenever the run's outcome was not a
// surprise error (a failed run with no assertions is still a pass — the
// scenario simply recorded what happened).
func (r *Result) Pass() bool { return Passed(r.Checks) }

// Run builds and executes the scenario. An error return means the scenario
// could not run at all (bad configuration); an unfinished run is not an
// error — it surfaces as Outcome "failed" for the assertions to judge.
func (r *Scenario) Execute() (*Result, error) {
	rs, fleet, err := r.Build()
	if err != nil {
		return nil, err
	}
	if fo, ok := r.FleetOptions(r.Shards); ok {
		return r.executeFleet(rs, fleet, fo)
	}
	rr, runErr := core.RunResilient(rs)
	if rr == nil && runErr != nil {
		// No report at all: the study itself was rejected.
		return nil, r.fail(runErr)
	}
	m := Measure(rr, runErr)
	return &Result{
		Scenario: r,
		Fleet:    fleet,
		Report:   rr,
		RunErr:   runErr,
		M:        m,
		Checks:   r.Assertions.Evaluate(m),
	}, nil
}

// FleetOptions returns the fleet options a multi-cell scenario runs under;
// ok is false for the default single-machine shape. shards is the CLI's
// -shards value: how many cells run at once (0 = GOMAXPROCS).
func (r *Scenario) FleetOptions(shards int) (core.FleetOptions, bool) {
	if r.cells() <= 1 {
		return core.FleetOptions{}, false
	}
	var stagger sim.Time
	if r.FleetGen.StaggerS > 0 {
		stagger = sim.FromSeconds(r.FleetGen.StaggerS)
	}
	return core.FleetOptions{
		Cells:   r.cells(),
		Stagger: stagger,
		Shards:  shards,
	}, true
}

// executeFleet runs a multi-cell scenario as a fleet: one attempt of the
// study per cell, no restart loop. A fleet error is a configuration
// or launch failure, not an assertable outcome, so it fails Execute.
func (r *Scenario) executeFleet(rs core.ResilientStudy, fleet *Fleet, fo core.FleetOptions) (*Result, error) {
	s := rs.Study
	// The measurement layer reads the representative cell's event trace.
	s.KeepTrace = true
	fr, err := core.RunFleet(s, fo)
	if err != nil {
		return nil, r.fail(err)
	}
	rr := FleetResilientReport(fr)
	m := Measure(rr, nil)
	return &Result{
		Scenario: r,
		Fleet:    fleet,
		Report:   rr,
		FleetRun: fr,
		M:        m,
		Checks:   r.Assertions.Evaluate(m),
	}, nil
}

// FleetResilientReport adapts a fleet report to the resilient-report shape
// the measurement and rendering layers consume: one completed "attempt" per
// cell (a fleet run fails fast instead of restarting), cell 0 as the
// representative report — it keeps the study's own fault timeline, so its
// trace-derived measurements match the single-machine run's — the
// concatenated incident log in cell order, and the fleet makespan as the
// wall clock.
func FleetResilientReport(fr *core.FleetReport) *core.ResilientReport {
	rr := &core.ResilientReport{Final: fr.Cells[0], Wall: fr.Makespan}
	for i, r := range fr.Cells {
		rr.Attempts = append(rr.Attempts, core.Attempt{Start: fr.Starts[i], End: r.Wall})
		rr.Incidents = append(rr.Incidents, r.Incidents...)
	}
	return rr
}

// RenderFleetRun formats the fleet-level outcome of a multi-cell scenario.
func RenderFleetRun(fr *core.FleetReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet run: %d cells (%d workers), makespan %.3fs\n",
		len(fr.Cells), fr.Fabric.Workers, fr.Makespan.Seconds())
	return b.String()
}

// RenderFleet formats the realized fleet as a report section; empty for the
// default homogeneous shape with instant startup.
func RenderFleet(f *Fleet) string {
	if f == nil || (len(f.Assignment) == 0 && len(f.Startup) == 0) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet:\n")
	if len(f.Assignment) > 0 {
		// Group consecutive nodes sharing a template for a compact layout.
		fmt.Fprintf(&b, "  %d I/O nodes: %s\n", f.IONodes, layout(f.Assignment))
		byT := map[string]int{}
		for _, name := range f.Assignment {
			byT[name]++
		}
		for _, name := range uniqueInOrder(f.Assignment) {
			fmt.Fprintf(&b, "  template %-12s x%d\n", name, byT[name])
		}
	}
	if len(f.Startup) > 0 {
		last := f.Startup[len(f.Startup)-1]
		fmt.Fprintf(&b, "  startup: %d nodes online late, last (node %d) at %.3fs\n",
			len(f.Startup), last.Node, last.Duration.Seconds())
	}
	return b.String()
}

// RenderChecks formats the assertion section: the verdict plus every bound,
// violated bounds called out with their measured value.
func RenderChecks(name string, m Measurements, checks []Check) string {
	var b strings.Builder
	verdict := "PASS"
	if !Passed(checks) {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "Assertions (%s): %s\n", name, verdict)
	fmt.Fprintf(&b, "  outcome %s", m.Outcome)
	if m.CompletionErr != "" {
		fmt.Fprintf(&b, "  (%s)", m.CompletionErr)
	}
	fmt.Fprintln(&b)
	for _, c := range checks {
		status := "ok"
		if !c.Pass {
			status = "VIOLATED"
		}
		fmt.Fprintf(&b, "  %-22s bound %-12s actual %-12s %s\n", c.Name, c.Bound, c.Actual, status)
	}
	if len(checks) == 0 {
		fmt.Fprintf(&b, "  (no assertions configured)\n")
	}
	return b.String()
}

// RenderVariants formats one row per run of a scenario file with variants —
// the base, then each variant — with the measurements the assertions bound
// and the mean latency of the run's reads and writes.
func RenderVariants(name string, results []*Result) string {
	w := len("scenario")
	for _, r := range results {
		w = max(w, len(r.Scenario.Name))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Variants (%s):\n", name)
	fmt.Fprintf(&b, "  %-*s %-8s %10s %10s %6s %11s %6s %11s %9s %6s\n", w,
		"scenario", "outcome", "makespan", "p95 read", "reads", "mean read",
		"writes", "mean write", "phys req", "hit%")
	for _, r := range results {
		m := r.M
		reads, readMs := meanOpMs(r.Report, "Read", "AsynchRead")
		writes, writeMs := meanOpMs(r.Report, "Write")
		hit := "-"
		if m.HasCache {
			hit = fmt.Sprintf("%.1f%%", 100*m.CacheHitRatio)
		}
		fmt.Fprintf(&b, "  %-*s %-8s %9.3fs %8.3fms %6d %9.3fms %6d %9.3fms %9d %6s\n",
			w, r.Scenario.Name, m.Outcome, m.MakespanS, m.P95ReadMs, reads, readMs,
			writes, writeMs, m.PhysRequests, hit)
	}
	return b.String()
}

// meanOpMs returns how many operations of the labelled operation-summary
// rows the final attempt traced and their mean duration in milliseconds.
func meanOpMs(rr *core.ResilientReport, labels ...string) (int64, float64) {
	if rr == nil || rr.Final == nil {
		return 0, 0
	}
	var n int64
	var t sim.Time
	for _, l := range labels {
		if row := rr.Final.Summary.Row(l); row != nil {
			n += row.Count
			t += row.NodeTime
		}
	}
	if n == 0 {
		return 0, 0
	}
	return n, t.Seconds() * 1e3 / float64(n)
}

// layout compresses a per-node template assignment into "0-3:fast 4-15:slow"
// runs.
func layout(assign []string) string {
	var parts []string
	for i := 0; i < len(assign); {
		j := i
		for j+1 < len(assign) && assign[j+1] == assign[i] {
			j++
		}
		if i == j {
			parts = append(parts, fmt.Sprintf("%d:%s", i, assign[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d:%s", i, j, assign[i]))
		}
		i = j + 1
	}
	return strings.Join(parts, " ")
}

func uniqueInOrder(names []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

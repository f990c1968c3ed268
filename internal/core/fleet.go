// Fleet execution: many independent machine cells on the sweep executor.
//
// The paper characterized one 128-node partition against 16 I/O nodes; the
// roadmap's what-if sweeps want fleets orders of magnitude past that. A
// fleet here is N machine cells — each a complete Machine (mesh, PFS,
// tracers) running its own instance of the study's application on its own
// engine — launched with a configurable stagger, as a fleet scheduler
// dispatches jobs in sequence. Nothing crosses cells, so each is one
// attempt of the study, run by the sweep executor on up to Shards workers.
//
// Determinism: a cell's run is a pure function of the study and its index,
// so the worker count can only change wall-clock time, never results.
// TestFleetByteIdenticalAcrossShardCounts holds the fleet to its one-worker
// run for every app × mode × feature combination.
package core

import (
	"fmt"
	goruntime "runtime"

	"repro/internal/exec"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FleetOptions configure a fleet run.
type FleetOptions struct {
	// Cells is the number of independent machine cells (>= 1).
	Cells int

	// Stagger is the launch delay between consecutive cells, modeling a
	// fleet scheduler dispatching jobs in sequence. Zero launches every
	// cell one mesh lookahead after time zero.
	Stagger sim.Time

	// Shards bounds how many cells execute concurrently: 0 = GOMAXPROCS,
	// 1 = one cell after another on the calling goroutine.
	Shards int
}

// FleetReport is the outcome of a fleet run: one full study report per cell
// in cell order, plus fleet-level aggregates.
type FleetReport struct {
	Cells []*Report

	// Starts records each cell's launch instant on the shared virtual
	// clock; Makespan is the latest cell finish.
	Starts   []sim.Time
	Makespan sim.Time

	// Fabric holds the run's execution counters. It exists only for the
	// benchmark harness, which reads Windows and Mail as per-layer counters.
	Fabric FleetStats
}

// FleetStats are a fleet run's execution counters. They exist only for the
// benchmark harness; RenderFleetRun prints the worker count.
type FleetStats struct {
	Workers int   // resolved worker count
	Mail    int64 // cells launched
	Windows int64 // always 0: cells run to completion independently
}

// fleetCell is one cell's outcome as its worker hands it back.
type fleetCell struct {
	report *Report
	start  sim.Time
}

// RunFleet executes opts.Cells instances of the study as a fleet. Results
// are byte-identical at every Shards value; errors are reported for the
// lowest-indexed failing cell, the sweep executor's deterministic choice.
func RunFleet(s Study, opts FleetOptions) (*FleetReport, error) {
	return runFleet(s, opts, nil)
}

// runFleet is RunFleet with a per-cell hook, called in the cell's worker
// with its machine once the report is assembled; the worker-count
// determinism oracle fingerprints each cell's file image through it.
func runFleet(s Study, opts FleetOptions, inspect func(i int, m *workload.Machine)) (*FleetReport, error) {
	if opts.Cells < 1 {
		return nil, fmt.Errorf("core: fleet needs >= 1 cell, got %d", opts.Cells)
	}
	if opts.Stagger < 0 {
		return nil, fmt.Errorf("core: negative fleet stagger %v", opts.Stagger)
	}
	workers := opts.Shards
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}

	studies := make([]Study, opts.Cells)
	cellSeeds := sim.NewRNG(s.FaultSeed)
	for i := range studies {
		studies[i] = s
		if i > 0 {
			// Independent chaos per cell, all derived from the one study
			// seed; cell 0 keeps the study's own timeline.
			studies[i].FaultSeed = cellSeeds.Uint64()
		}
	}

	cells, err := exec.MapN(workers, studies, func(i int, cs Study) (fleetCell, error) {
		cs, rt, err := prepare(cs)
		if err != nil {
			return fleetCell{}, fmt.Errorf("core: fleet cell %d: %w", i, err)
		}
		start := mesh.Lookahead + opts.Stagger*sim.Time(i)
		// The plan's instants are relative to the job, not the fleet: they
		// are armed past the cell's launch.
		rt.arm(cs, planEvents(cs), start)
		runErr := rt.run(start)
		if err := rt.jobErr(); err != nil {
			return fleetCell{}, fmt.Errorf("core: fleet cell %d: %w", i, err)
		}
		if runErr != nil {
			return fleetCell{}, fmt.Errorf("core: fleet cell %d: %w", i, runErr)
		}
		r := finishReport(cs, rt)
		if inspect != nil {
			inspect(i, rt.m)
		}
		return fleetCell{report: r, start: start}, nil
	})
	if err != nil {
		return nil, err
	}

	fr := &FleetReport{
		Cells:  make([]*Report, opts.Cells),
		Starts: make([]sim.Time, opts.Cells),
		Fabric: FleetStats{Workers: workers, Mail: int64(opts.Cells)},
	}
	for i, c := range cells {
		fr.Cells[i] = c.report
		fr.Starts[i] = c.start
		if c.report.Wall > fr.Makespan {
			fr.Makespan = c.report.Wall
		}
	}
	return fr, nil
}

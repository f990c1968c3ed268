// Sharded fleet execution: many machine cells on a conservative-parallel
// fabric.
//
// The paper characterized one 128-node partition against 16 I/O nodes; the
// roadmap's what-if sweeps want fleets orders of magnitude past that. A
// fleet here is N machine cells — each a complete Machine (mesh, PFS,
// tracers) running its own instance of the study's application — placed on
// one fabric shard each, plus a coordinator shard that launches the cells
// with a configurable stagger over the simulated interconnect. The
// coordinator's launch mail is real cross-shard traffic bounded by the mesh
// lookahead; once it quiesces, every cell's horizon is unbounded and the
// cells execute concurrently on up to Shards OS threads.
//
// Determinism: each cell's engine consumes only its own events plus mail
// delivered in the fabric's canonical order, so a cell's trace is a pure
// function of the study and its index — the shard/worker count can only
// change wall-clock time, never results. The serial engine (Shards=1)
// remains the regression oracle; TestFleetByteIdenticalAcrossShardCounts
// holds the fleet to it for every app × mode × feature combination.
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// FleetOptions configure a sharded fleet run.
type FleetOptions struct {
	// Cells is the number of independent machine cells (>= 1).
	Cells int

	// Stagger is the launch delay between consecutive cells, modeling a
	// fleet scheduler dispatching jobs in sequence. Zero launches every
	// cell one mesh lookahead after time zero.
	Stagger sim.Time

	// Shards bounds how many cells execute concurrently: 0 = GOMAXPROCS,
	// 1 = the serial oracle.
	Shards int

	// Seed derives each shard's RNG substream and, for cells past the
	// first, their fault-plan seeds (cell 0 keeps the study's own
	// FaultSeed, so a one-cell fleet realizes the exact serial timeline).
	Seed uint64
}

// FleetReport is the outcome of a fleet run: one full study report per cell
// in cell order, plus fleet-level aggregates.
type FleetReport struct {
	Cells []*Report

	// Starts records each cell's launch instant on the shared virtual
	// clock; Makespan is the latest cell finish.
	Starts   []sim.Time
	Makespan sim.Time

	// Fabric holds the conservative protocol's counters for the run.
	Fabric sim.FabricStats
}

// fleetCell bundles one cell's prepared runtime and its fabric shard.
type fleetCell struct {
	study     Study
	rt        *runtime
	inj       *fault.Injector
	shard     *sim.Shard
	start     sim.Time
	launchErr error
}

// RunFleet executes opts.Cells instances of the study as a sharded fleet.
// Results are byte-identical at every Shards value; errors are reported for
// the lowest-indexed failing cell, mirroring the sweep executor's
// deterministic error choice.
func RunFleet(s Study, opts FleetOptions) (*FleetReport, error) {
	fr, _, err := runFleet(s, opts)
	return fr, err
}

// runFleet is RunFleet exposing the per-cell runtimes, which the shard-count
// determinism oracle fingerprints directly.
func runFleet(s Study, opts FleetOptions) (*FleetReport, []*fleetCell, error) {
	if opts.Cells < 1 {
		return nil, nil, fmt.Errorf("core: fleet needs >= 1 cell, got %d", opts.Cells)
	}
	if opts.Stagger < 0 {
		return nil, nil, fmt.Errorf("core: negative fleet stagger %v", opts.Stagger)
	}

	fab := sim.NewFabric(opts.Shards)
	coord := fab.AddShard("coordinator", opts.Seed)
	cellSeeds := sim.NewRNG(s.FaultSeed)
	cells := make([]*fleetCell, opts.Cells)
	for i := range cells {
		cs := s
		if i > 0 {
			// Independent chaos per cell, all derived from the one study
			// seed; cell 0 keeps the study's own timeline.
			cs.FaultSeed = cellSeeds.Uint64()
		}
		shard := fab.AddShard(fmt.Sprintf("cell%d", i), opts.Seed)
		cs, rt, err := prepareOn(cs, shard.Engine())
		if err != nil {
			return nil, nil, fmt.Errorf("core: fleet cell %d: %w", i, err)
		}
		lookahead := rt.m.Mesh.Lookahead()
		fab.Connect(coord, shard, lookahead)
		start := lookahead + opts.Stagger*sim.Time(i)

		var events []fault.Event
		if !cs.Faults.Empty() {
			events = cs.Faults.Materialize(cs.FaultSeed, cs.Machine.PFS.IONodes, cs.Machine.ComputeNodes)
			// The plan's instants are relative to the job, not the fleet:
			// shift them past the cell's launch.
			for j := range events {
				events[j].At += start
			}
		}
		cells[i] = &fleetCell{
			study: cs,
			rt:    rt,
			inj:   rt.inject(cs, events),
			shard: shard,
			start: start,
		}
	}

	coord.Engine().Spawn("launcher", func(p *sim.Process) {
		for _, c := range cells {
			c := c
			coord.Send(p, c.shard, c.start, "launch:"+c.shard.Name(), func(lp *sim.Process) {
				if err := c.rt.app.Launch(c.rt.m, c.rt.fs); err != nil {
					c.launchErr = fmt.Errorf("%s: launch: %w", c.rt.app.Name(), err)
					lp.Engine().Stop()
				}
			})
		}
	})

	if err := fab.Run(); err != nil {
		return nil, nil, fmt.Errorf("core: fleet: %w", err)
	}

	fr := &FleetReport{
		Cells:  make([]*Report, opts.Cells),
		Starts: make([]sim.Time, opts.Cells),
		Fabric: fab.Stats(),
	}
	for i, c := range cells {
		if c.launchErr != nil {
			return nil, nil, fmt.Errorf("core: fleet cell %d: %w", i, c.launchErr)
		}
		if err := attemptFailure(c.study, c.rt, c.inj); err != nil {
			return nil, nil, fmt.Errorf("core: fleet cell %d: %w", i, err)
		}
		r := finishReport(c.study, c.rt, c.inj)
		fr.Cells[i] = r
		fr.Starts[i] = c.start
		if r.Wall > fr.Makespan {
			fr.Makespan = r.Wall
		}
	}
	return fr, cells, nil
}

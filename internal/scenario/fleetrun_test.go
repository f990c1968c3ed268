package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

const fleetScenarioSrc = `
name: fleet-run
seed: 9
workload:
  app: escat
fleet_gen:
  io_nodes: 4
  cells: 3
  stagger_s: 0.05
assertions:
  expected: ok
  max_failed_attempts: 0
`

// fleetResultImage renders everything a fleet scenario run surfaces: the
// adapted resilient report's headline numbers, the per-cell attempt table,
// the fleet aggregates, and the assertion section.
func fleetResultImage(t *testing.T, shards int) string {
	t.Helper()
	sc, err := Parse([]byte(fleetScenarioSrc), "")
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = shards
	res, err := sc.Execute()
	if err != nil {
		t.Fatalf("Execute (shards=%d): %v", shards, err)
	}
	if res.FleetRun == nil {
		t.Fatalf("multi-cell scenario did not run as a fleet")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%d lost=%d cells=%d mail=%d\n",
		res.Report.Wall, res.Report.LostWork, len(res.FleetRun.Cells), res.FleetRun.Fabric.Mail)
	for i, a := range res.Report.Attempts {
		fmt.Fprintf(&b, "attempt %d start=%d end=%d failed=%v\n", i, a.Start, a.End, a.Failed)
	}
	fmt.Fprintf(&b, "final events=%d summary=%+v\n", len(res.Report.Final.Events), res.Report.Final.Summary)
	b.WriteString(RenderChecks(sc.Name, res.M, res.Checks))
	return b.String()
}

// TestExecuteFleetByteIdenticalAcrossShards is the DSL-level face of the
// shard-count oracle: a multi-cell scenario's full result must not depend on
// the -shards setting.
func TestExecuteFleetByteIdenticalAcrossShards(t *testing.T) {
	ref := fleetResultImage(t, 1)
	if !strings.Contains(ref, "Assertions (fleet-run): PASS") {
		t.Fatalf("fleet scenario did not pass its assertions:\n%s", ref)
	}
	for _, shards := range []int{2, 4} {
		if got := fleetResultImage(t, shards); got != ref {
			t.Errorf("fleet scenario result at shards=%d differs from the serial oracle:\n-- shards=1:\n%s\n-- shards=%d:\n%s",
				shards, ref, shards, got)
		}
	}
}

// TestFleetOptionsMapping checks the scenario → core.FleetOptions
// translation and the single-machine fallthrough.
func TestFleetOptionsMapping(t *testing.T) {
	sc, err := Parse([]byte(fleetScenarioSrc), "")
	if err != nil {
		t.Fatal(err)
	}
	fo, ok := sc.FleetOptions(4)
	if !ok {
		t.Fatal("cells=3 scenario reported no fleet options")
	}
	if fo.Cells != 3 || fo.Shards != 4 || fo.Seed != 9 {
		t.Fatalf("fleet options %+v: want cells=3 shards=4 seed=9", fo)
	}
	if fo.Stagger != 50*sim.Millisecond {
		t.Fatalf("stagger %v, want 50ms", fo.Stagger)
	}

	single, err := Parse([]byte("workload:\n  app: escat\n"), "t.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := single.FleetOptions(4); ok {
		t.Fatal("single-machine scenario reported fleet options")
	}
}

// A fleet's resilience summary scores the representative cell's trace
// against that cell's own incidents, even when a later cell's storm is the
// last thing on the fleet clock.
func TestFleetImpactsNameOnlyCellZeroIncidents(t *testing.T) {
	s := core.SmallStudy(core.ESCAT)
	s.Faults = fault.Plan{Events: []fault.Event{{
		Kind: fault.LatencyStorm, At: sim.Second, Node: 0, Duration: 2 * sim.Second, Factor: 4,
	}}}
	solo, err := core.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Cell 1 launches after cell 0 has finished.
	fr, err := core.RunFleet(s, core.FleetOptions{Cells: 2, Stagger: solo.Wall + sim.Second, Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	own := fr.Cells[0].Incidents
	if len(own) == 0 || len(fr.Cells[1].Incidents) == 0 {
		t.Fatalf("storm not realized in both cells: %+v / %+v", own, fr.Cells[1].Incidents)
	}
	impacts := FleetResilientReport(fr).Resilience().Impacts
	if len(impacts) != len(own) {
		t.Fatalf("%d impacts for cell 0's %d incidents: %+v", len(impacts), len(own), impacts)
	}
	for i, imp := range impacts {
		if imp.Incident != own[i] {
			t.Errorf("impact %d scores %+v, want cell 0's %+v", i, imp.Incident, own[i])
		}
		if imp.Ops == 0 {
			t.Errorf("impact %d overlaps none of cell 0's operations", i)
		}
	}
}

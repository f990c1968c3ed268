package fault

import (
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/sim"
)

func testPlan() Plan {
	return Plan{
		Events: []Event{
			{Kind: IONodeOutage, At: 2 * sim.Second, Node: AnyNode, Duration: sim.Second},
			{Kind: DiskFailure, At: 5 * sim.Second, Node: 1},
		},
		Exps: []Exp{
			{Kind: LatencyStorm, MeanBetween: 3 * sim.Second, Start: 0, End: 20 * sim.Second,
				Node: AnyNode, Duration: 500 * sim.Millisecond, Factor: 3},
		},
		Cascades: []Cascade{
			{Kind: IONodeOutage, At: 10 * sim.Second, Nodes: 3, FirstNode: 2,
				Spacing: 100 * sim.Millisecond, Duration: sim.Second},
		},
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	pl := testPlan()
	a := pl.Materialize(42, 4, 8)
	b := pl.Materialize(42, 4, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed materialized different schedules")
	}
	c := pl.Materialize(43, 4, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds materialized identical schedules (suspicious)")
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("schedule not sorted at %d: %v after %v", i, a[i].At, a[i-1].At)
		}
	}
	for _, e := range a {
		if e.Node < 0 || e.Node >= 4 {
			t.Fatalf("unresolved node %d", e.Node)
		}
	}
}

func TestMaterializeExpWindow(t *testing.T) {
	pl := Plan{Exps: []Exp{{
		Kind: IONodeOutage, MeanBetween: sim.Second,
		Start: 10 * sim.Second, End: 30 * sim.Second, Node: 0, Duration: sim.Second,
	}}}
	evs := pl.Materialize(7, 2, 8)
	if len(evs) == 0 {
		t.Fatal("20 s window at 1 s mean produced no failures")
	}
	for _, e := range evs {
		if e.At <= 10*sim.Second || e.At >= 30*sim.Second {
			t.Fatalf("arrival %v outside (10s, 30s)", e.At)
		}
	}
}

func TestMaterializeCascade(t *testing.T) {
	pl := Plan{Cascades: []Cascade{{
		Kind: LatencyStorm, At: sim.Second, Nodes: 3, FirstNode: 3,
		Spacing: sim.Second, Duration: sim.Second, Factor: 2,
	}}}
	evs := pl.Materialize(1, 4, 8)
	if len(evs) != 3 {
		t.Fatalf("cascade produced %d events, want 3", len(evs))
	}
	wantNodes := []int{3, 0, 1} // wraps mod 4
	for i, e := range evs {
		if e.Node != wantNodes[i] {
			t.Errorf("cascade hit %d on node %d, want %d", i, e.Node, wantNodes[i])
		}
		if e.At != sim.Second+sim.Time(i)*sim.Second {
			t.Errorf("cascade hit %d at %v", i, e.At)
		}
	}
}

func TestShiftForRestart(t *testing.T) {
	evs := []Event{
		{Kind: IONodeOutage, At: 1 * sim.Second, Duration: 2 * sim.Second},  // completed: dropped
		{Kind: IONodeOutage, At: 4 * sim.Second, Duration: 5 * sim.Second},  // spans: clamped
		{Kind: IONodeOutage, At: 10 * sim.Second, Duration: 1 * sim.Second}, // future: shifted
		{Kind: DiskFailure, At: 2 * sim.Second},                             // past disk: persists at 0
		{Kind: DiskFailure, At: 8 * sim.Second},                             // future disk: shifted
	}
	got := ShiftForRestart(evs, 6*sim.Second)
	want := []Event{
		{Kind: IONodeOutage, At: 0, Duration: 3 * sim.Second},
		{Kind: IONodeOutage, At: 4 * sim.Second, Duration: 1 * sim.Second},
		{Kind: DiskFailure, At: 0},
		{Kind: DiskFailure, At: 2 * sim.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ShiftForRestart = %+v, want %+v", got, want)
	}
}

func testNodes(eng *sim.Engine, n int, cfg disk.ArrayConfig) []*ionode.Node {
	nodes := make([]*ionode.Node, n)
	for i := range nodes {
		nodes[i] = ionode.New(eng, i, cfg)
	}
	return nodes
}

func TestInjectorOutageWindow(t *testing.T) {
	eng := sim.NewEngine()
	cfg := disk.DefaultArrayConfig()
	nodes := testNodes(eng, 2, cfg)
	inj := Inject(eng, nodes, []Event{
		{Kind: IONodeOutage, At: sim.Second, Node: 1, Duration: 2 * sim.Second},
	}, NodeLossHooks{})
	var during, after bool
	eng.SpawnAt("probe", 1500*sim.Millisecond, func(p *sim.Process) {
		during = nodes[1].Down()
		p.Sleep(2 * sim.Second)
		after = nodes[1].Down()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !during || after {
		t.Fatalf("down during=%v after=%v, want true/false", during, after)
	}
	incs := inj.Incidents()
	if len(incs) != 1 || incs[0].Open || incs[0].End-incs[0].Start != 2*sim.Second {
		t.Fatalf("incidents %+v", incs)
	}
}

func TestInjectorDiskFailureRebuilds(t *testing.T) {
	eng := sim.NewEngine()
	cfg := disk.DefaultArrayConfig()
	cfg.DiskCapacity = 8 << 20 // small drive: rebuild finishes quickly
	cfg.RebuildSliceBytes = 1 << 20
	cfg.RebuildBWBytesPerS = 4 << 20
	nodes := testNodes(eng, 1, cfg)
	inj := Inject(eng, nodes, []Event{{Kind: DiskFailure, At: sim.Second, Node: 0}}, NodeLossHooks{})
	var during bool
	eng.SpawnAt("probe", 1100*sim.Millisecond, func(p *sim.Process) {
		during = nodes[0].Array().Degraded()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !during {
		t.Error("array not degraded right after injection")
	}
	if nodes[0].Array().Degraded() || nodes[0].Array().Dead() {
		t.Error("array not rebuilt by end of run")
	}
	incs := inj.Incidents()
	if len(incs) != 1 || incs[0].Note != "rebuilt" || incs[0].Open {
		t.Fatalf("incidents %+v", incs)
	}
	// 8 MB at 4 MB/s rebuild bandwidth = 2 s of rebuild work.
	if got := incs[0].End - incs[0].Start; got != 2*sim.Second {
		t.Errorf("rebuild took %v, want 2s", got)
	}
	if st := nodes[0].Array().Stats(); st.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d", st.Rebuilds)
	}
}

func TestInjectorSecondDiskFailureKills(t *testing.T) {
	eng := sim.NewEngine()
	cfg := disk.DefaultArrayConfig() // full 1.2 GB: rebuild won't finish in time
	nodes := testNodes(eng, 1, cfg)
	inj := Inject(eng, nodes, []Event{
		{Kind: DiskFailure, At: sim.Second, Node: 0},
		{Kind: DiskFailure, At: 2 * sim.Second, Node: 0},
	}, NodeLossHooks{})
	eng.SpawnAt("stop", 10*sim.Second, func(p *sim.Process) { eng.Stop() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !nodes[0].Array().Dead() {
		t.Fatal("array survived two drive failures")
	}
	incs := inj.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents %+v", incs)
	}
	if incs[1].Note != "array dead (second drive failure)" {
		t.Errorf("second incident note %q", incs[1].Note)
	}
}

func TestInjectorStorm(t *testing.T) {
	eng := sim.NewEngine()
	nodes := testNodes(eng, 1, disk.DefaultArrayConfig())
	Inject(eng, nodes, []Event{
		{Kind: LatencyStorm, At: sim.Second, Node: 0, Duration: sim.Second, Factor: 4},
	}, NodeLossHooks{})
	var during float64
	eng.SpawnAt("probe", 1500*sim.Millisecond, func(p *sim.Process) {
		during = nodes[0].LatencyFactor()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if during != 4 {
		t.Errorf("factor during storm = %v, want 4", during)
	}
	if f := nodes[0].LatencyFactor(); f != 1 {
		t.Errorf("factor after storm = %v, want 1", f)
	}
}

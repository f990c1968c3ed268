package workload

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
)

func TestNewMachineBuildsConsistentTopology(t *testing.T) {
	cfg := DefaultMachineConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 128 {
		t.Fatalf("nodes %d", m.Nodes)
	}
	// Mesh must hold compute + I/O nodes.
	if m.Mesh.Nodes() < cfg.ComputeNodes+cfg.PFS.IONodes {
		t.Fatalf("mesh %d positions for %d+%d nodes",
			m.Mesh.Nodes(), cfg.ComputeNodes, cfg.PFS.IONodes)
	}
	if len(m.PFS.IONodes()) != cfg.PFS.IONodes {
		t.Fatalf("ionodes %d", len(m.PFS.IONodes()))
	}
}

func TestNewMachineRejectsBadConfigs(t *testing.T) {
	bad := DefaultMachineConfig()
	bad.ComputeNodes = 0
	if _, err := NewMachine(bad); err == nil {
		t.Fatal("0 compute nodes accepted")
	}
	bad = DefaultMachineConfig()
	bad.PFS.StripeUnit = 0
	if _, err := NewMachine(bad); err == nil {
		t.Fatal("invalid PFS config accepted")
	}
}

// testApp is a trivial App used to exercise Run.
type testApp struct {
	fail    bool
	ran     bool
	ioDone  bool
	errColl NodeErrors
}

func (a *testApp) Name() string { return "testapp" }

func (a *testApp) TraceEvents() int { return 2 }

func (a *testApp) Launch(m *Machine, fs FS) error {
	if a.fail {
		return errors.New("boom")
	}
	a.ran = true
	m.Eng.Spawn("t", func(p *sim.Process) {
		h, err := fs.Create(p, 0, "x", iotrace.ModeUnix)
		if err != nil {
			a.errColl.Addf("create: %v", err)
			return
		}
		if _, err := h.Write(p, 1000); err != nil {
			a.errColl.Addf("write: %v", err)
			return
		}
		a.ioDone = true
	})
	return nil
}

func TestRunDrivesAppToCompletion(t *testing.T) {
	m, err := NewMachine(MachineConfig{ComputeNodes: 4, PFS: pfs.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	app := &testApp{}
	if err := Run(m, WrapPFS(m.PFS), app); err != nil {
		t.Fatal(err)
	}
	if !app.ran || !app.ioDone {
		t.Fatalf("app state %+v", app)
	}
	if err := app.errColl.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRunSurfacesLaunchFailure(t *testing.T) {
	m, _ := NewMachine(MachineConfig{ComputeNodes: 4, PFS: pfs.DefaultConfig()})
	err := Run(m, WrapPFS(m.PFS), &testApp{fail: true})
	if err == nil || err.Error() != "testapp: launch: boom" {
		t.Fatalf("err %v", err)
	}
}

func TestNodeErrorsAggregation(t *testing.T) {
	var unlaunched *NodeErrors
	if unlaunched.Err() != nil {
		t.Fatal("nil collector reports a failure")
	}
	ne := NewNodeErrors(sim.NewEngine())
	if ne.Err() != nil {
		t.Fatal("empty NodeErrors not nil")
	}
	// Only the first failure counts: the job died with it.
	ne.Addf("first %d", 1)
	ne.Addf("second")
	if err := ne.Err(); err == nil || err.Error() != "first 1" {
		t.Fatalf("err %v, want %q", err, "first 1")
	}
}

func TestWrapPFSImplementsFullSurface(t *testing.T) {
	m, err := NewMachine(MachineConfig{ComputeNodes: 4, PFS: pfs.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	fs := WrapPFS(m.PFS)
	fs.ReserveIDs(2)
	if _, err := fs.Preload("pre", 100_000); err != nil {
		t.Fatal(err)
	}
	fs.SetPhase(iotrace.PhaseReload)
	if info, ok := fs.Stat("pre"); !ok || info.ID != 3 {
		t.Fatalf("stat %+v %v", info, ok)
	}
	m.Eng.Spawn("t", func(p *sim.Process) {
		h, err := fs.Open(p, 0, "pre", iotrace.ModeUnix)
		if err != nil {
			t.Error(err)
			return
		}
		ar, err := h.ReadAsync(p, 50_000)
		if err != nil {
			t.Error(err)
			return
		}
		if n, err := ar.Wait(p); err != nil || n != 50_000 {
			t.Errorf("async n=%d err=%v", n, err)
		}
		hr, err := fs.OpenRecord(p, 1, "pre", 4096)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := hr.Read(p, 4096); err != nil {
			t.Error(err)
		}
		if err := h.SetIOMode(p, iotrace.ModeAsync, 0); err != nil {
			t.Error(err)
		}
		if _, err := h.Lsize(p); err != nil {
			t.Error(err)
		}
		if err := h.Flush(p); err != nil {
			t.Error(err)
		}
		if err := h.Close(p); err != nil {
			t.Error(err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineValidateActionableMessages(t *testing.T) {
	cases := []struct {
		mut  func(*MachineConfig)
		want string
	}{
		{func(c *MachineConfig) { c.ComputeNodes = 0 }, "needs >= 1 compute node"},
		{func(c *MachineConfig) { c.PFS.IONodes = 0 }, "needs >= 1 I/O node"},
		{func(c *MachineConfig) { c.PFS.Nodes = make([]pfs.NodeConfig, 5) },
			"5 per-node configs but the machine has 16 I/O nodes"},
		{func(c *MachineConfig) { c.PFS.StripeUnit = 0 }, "invalid PFS configuration"},
	}
	for i, tc := range cases {
		cfg := DefaultMachineConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q missing %q", i, err, tc.want)
		}
		if _, err := NewMachine(cfg); err == nil {
			t.Fatalf("case %d: NewMachine accepted bad config", i)
		}
	}
	good := DefaultMachineConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// The first node-program failure halts the engine: the job is dead, so a
// process due later never runs and the clock stays at the failure.
func TestNodeErrorsHaltEngineAtFirstFailure(t *testing.T) {
	eng := sim.NewEngine()
	errs := NewNodeErrors(eng)
	eng.Spawn("node0", func(p *sim.Process) {
		p.Sleep(1 * sim.Second)
		errs.Addf("node 0: read failed")
	})
	ran := false
	eng.SpawnAt("node1", 5*sim.Second, func(p *sim.Process) { ran = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("a process due after the failure ran")
	}
	if eng.Now() != 1*sim.Second {
		t.Errorf("engine clock %v after the halt, want the failure at 1s", eng.Now())
	}
	if err := errs.Err(); err == nil || err.Error() != "node 0: read failed" {
		t.Errorf("Err() = %v, want the failure", err)
	}
}

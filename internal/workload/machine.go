package workload

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// MachineConfig describes one simulated Paragon XP/S: the compute partition
// size plus the PFS (which embeds the I/O node and disk models).
type MachineConfig struct {
	ComputeNodes int
	PFS          pfs.Config
}

// DefaultMachineConfig returns the paper's measurement configuration: a
// 128-node compute partition in the CCSF machine's 512-node mesh, with 16
// I/O nodes.
func DefaultMachineConfig() MachineConfig {
	return MachineConfig{
		ComputeNodes: 128,
		PFS:          pfs.DefaultConfig(),
	}
}

// Machine bundles the simulation substrate one application run needs.
type Machine struct {
	Eng   *sim.Engine
	Mesh  *mesh.Mesh
	PFS   *pfs.FileSystem
	Nodes int // compute nodes (node ids 0..Nodes-1)
}

// Validate checks the machine shape up front with actionable messages, so a
// bad configuration (a scenario file, a sweep override) fails here instead of
// deep inside pfs.New or mesh construction.
func (cfg MachineConfig) Validate() error {
	if cfg.ComputeNodes < 1 {
		return fmt.Errorf("workload: machine needs >= 1 compute node, got %d (set MachineConfig.ComputeNodes, or use DefaultMachineConfig for the paper's 128)",
			cfg.ComputeNodes)
	}
	if cfg.PFS.IONodes < 1 {
		return fmt.Errorf("workload: machine needs >= 1 I/O node, got %d (set MachineConfig.PFS.IONodes; the paper's shape is 16)",
			cfg.PFS.IONodes)
	}
	if n := len(cfg.PFS.Nodes); n != 0 && n != cfg.PFS.IONodes {
		return fmt.Errorf("workload: fleet templates expanded to %d per-node configs but the machine has %d I/O nodes (PFS.Nodes must be empty for a homogeneous fleet or exactly IONodes long)",
			n, cfg.PFS.IONodes)
	}
	if err := cfg.PFS.Validate(); err != nil {
		return fmt.Errorf("workload: invalid PFS configuration: %w", err)
	}
	return nil
}

// NewMachine builds a machine: an engine, a mesh sized for compute plus I/O
// nodes, and a PFS instance whose I/O nodes sit at the top of the mesh.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	msh := mesh.New(cfg.ComputeNodes + cfg.PFS.IONodes)
	cfg.PFS.ComputeNodes = cfg.ComputeNodes
	fs, err := pfs.New(eng, msh, cfg.PFS)
	if err != nil {
		return nil, err
	}
	return &Machine{Eng: eng, Mesh: msh, PFS: fs, Nodes: cfg.ComputeNodes}, nil
}

// App is one runnable application skeleton. Launch spawns the application's
// processes on the machine; the caller then drives m.Eng.Run().
type App interface {
	// Name returns the application's short name (escat, render, htf).
	Name() string
	// Launch spawns the application's node programs against fs.
	Launch(m *Machine, fs FS) error
	// TraceEvents returns the exact number of trace events a full run of
	// the app's configuration records, checkpoint traffic included, so the
	// capture buffer can be sized once before the run.
	TraceEvents() int
}

// Run launches the app and executes the simulation to completion.
func Run(m *Machine, fs FS, app App) error {
	if err := app.Launch(m, fs); err != nil {
		return fmt.Errorf("%s: launch: %w", app.Name(), err)
	}
	if err := m.Eng.Run(); err != nil {
		return fmt.Errorf("%s: %w", app.Name(), err)
	}
	return nil
}

// NodeErrors records the first failure of an application's node programs
// and halts the run's engine there, as a compute-node loss does: the parallel
// job is dead, so nothing after the failure happens to it. The engine's
// clock is then the failure instant, and everything the run built (trace,
// incident timeline, integrity ledger) stands as it was at the failure.
type NodeErrors struct {
	eng *sim.Engine
	err error
}

// NewNodeErrors returns a collector that halts eng at the first failure.
func NewNodeErrors(eng *sim.Engine) *NodeErrors { return &NodeErrors{eng: eng} }

// Addf records a failure. Only the first counts: the process that recorded
// it may record more before it next blocks, but no other process runs again.
func (n *NodeErrors) Addf(format string, args ...any) {
	if n.err != nil {
		return
	}
	n.err = fmt.Errorf(format, args...)
	n.eng.Stop()
}

// Err returns the first recorded failure, or nil (also for the nil
// collector of an app that never launched).
func (n *NodeErrors) Err() error {
	if n == nil {
		return nil
	}
	return n.err
}

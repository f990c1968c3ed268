package workload

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// SyntheticConfig parameterizes a Synthetic workload: every node moves
// Records records of RecordBytes each through one shared file under the given
// PFS access mode. It is the sixmodes demonstration workload generalized into
// a reusable App, so mode what-ifs (scenario variants over
// workload.synthetic) and the integrity mode sweep can drive arbitrary
// record sizes, read/write direction, and access order from one skeleton.
type SyntheticConfig struct {
	Name        string // file name; defaults to "synthetic-<mode>"
	Nodes       int
	Mode        iotrace.AccessMode
	RecordBytes int64
	Records     int

	// Read makes every access a read of a preloaded file instead of a
	// write. M_GLOBAL is a read discipline and always reads.
	Read bool

	// Random replaces each node's sequential record order with a uniform
	// random record pick (seeded per node from Seed, so runs are
	// deterministic). Only meaningful for the independent-pointer modes
	// (M_UNIX, M_ASYNC); the shared-pointer disciplines define the order
	// themselves.
	Random bool
	Seed   uint64

	// FileBytes overrides the preloaded file size for read workloads. Zero
	// derives it from the record layout; set it larger than the cache to
	// build a working set that cannot become resident.
	FileBytes int64

	// Barrier synchronizes the nodes between opening the shared file and
	// starting the record loop — the barrier-then-I/O-phase structure of the
	// paper's applications. Opens serialize at the metadata server, so
	// without it the nodes enter the I/O phase staggered by a full open
	// service time each; round-structured what-ifs (collective I/O's
	// straggler window) need the phase alignment.
	Barrier bool
}

// Validate reports nonsensical configurations.
func (c SyntheticConfig) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("workload: synthetic needs >= 1 node, got %d", c.Nodes)
	}
	if c.RecordBytes < 1 || c.Records < 1 {
		return fmt.Errorf("workload: synthetic needs positive records, got %d x %d B",
			c.Records, c.RecordBytes)
	}
	return nil
}

// Synthetic is the configurable one-shared-file workload.
type Synthetic struct {
	cfg  SyntheticConfig
	errs *NodeErrors
}

// New implements AppConfig: it validates the configuration and builds the
// workload.
func (c SyntheticConfig) New() (App, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Name == "" {
		c.Name = "synthetic-" + c.Mode.String()
	}
	return &Synthetic{cfg: c}, nil
}

// ComputeNodes implements AppConfig.
func (c SyntheticConfig) ComputeNodes() int { return c.Nodes }

// WithNodes implements AppConfig.
func (c SyntheticConfig) WithNodes(n int) (AppConfig, error) {
	c.Nodes = n
	return c, nil
}

// WithCkpt implements AppConfig: the record loop is not checkpointed.
func (c SyntheticConfig) WithCkpt(Checkpointer) (AppConfig, bool) { return c, false }

// OutputPrefixes implements AppConfig: the workload routes nothing through
// the burst log by name.
func (SyntheticConfig) OutputPrefixes() []string { return nil }

// Name implements App.
func (s *Synthetic) Name() string { return "synthetic" }

// Err returns the first node failure, if any.
func (s *Synthetic) Err() error { return s.errs.Err() }

// reads reports whether the workload's data motion is reads.
func (s *Synthetic) reads() bool {
	return s.cfg.Read || s.cfg.Mode == iotrace.ModeGlobal
}

// independent reports whether each node moves its own file pointer.
func (s *Synthetic) independent() bool {
	return s.cfg.Mode == iotrace.ModeUnix || s.cfg.Mode == iotrace.ModeAsync
}

// randomSeeks reports whether every record is preceded by a seek to a random
// record slot.
func (s *Synthetic) randomSeeks() bool {
	return s.cfg.Random && s.independent() && s.fileSize()/s.cfg.RecordBytes > 0
}

// TraceEvents implements App: per node an open, a close and one access per
// record, plus the partition seek of a sequential independent-pointer run or
// the per-record seek of a random one.
func (s *Synthetic) TraceEvents() int {
	per := 2 + s.cfg.Records
	switch {
	case s.randomSeeks():
		per += s.cfg.Records
	case s.independent() && !s.cfg.Random:
		per++
	}
	return s.cfg.Nodes * per
}

// fileSize returns the preloaded extent.
func (s *Synthetic) fileSize() int64 {
	if !s.reads() {
		return 0
	}
	if s.cfg.FileBytes > 0 {
		return s.cfg.FileBytes
	}
	per := int64(s.cfg.Records) * s.cfg.RecordBytes
	if s.cfg.Mode == iotrace.ModeGlobal {
		// Every node reads the same records.
		return per
	}
	return int64(s.cfg.Nodes) * per
}

// Launch implements App: it preloads the shared file and spawns one process
// per node.
func (s *Synthetic) Launch(m *Machine, fs FS) error {
	s.errs = NewNodeErrors(m.Eng)
	cfg := s.cfg
	if _, err := fs.Preload(cfg.Name, s.fileSize()); err != nil {
		return err
	}
	var bar *sim.Barrier
	if cfg.Barrier {
		bar = sim.NewBarrier(m.Eng, "syn-phase", cfg.Nodes)
	}
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		m.Eng.Spawn(fmt.Sprintf("syn%d", node), func(p *sim.Process) {
			if err := s.runNode(p, fs, node, bar); err != nil {
				s.errs.Addf("node %d: %w", node, err)
			}
		})
	}
	return nil
}

func (s *Synthetic) runNode(p *sim.Process, fs FS, node int, bar *sim.Barrier) error {
	cfg := s.cfg
	var h Handle
	var err error
	if cfg.Mode == iotrace.ModeRecord {
		h, err = fs.OpenRecord(p, node, cfg.Name, cfg.RecordBytes)
	} else {
		h, err = fs.Open(p, node, cfg.Name, cfg.Mode)
	}
	if err != nil {
		return err
	}
	if s.independent() && !cfg.Random {
		// Each node owns a disjoint sequential partition.
		off := int64(node) * int64(cfg.Records) * cfg.RecordBytes
		if _, err := h.Seek(p, off, pfs.SeekStart); err != nil {
			return err
		}
	}
	var rng *sim.RNG
	if s.randomSeeks() {
		// Split hashes the seed through the generator, so per-node streams
		// are decorrelated (adjacent raw seeds would overlap: splitmix64
		// advances its state by a fixed increment per draw).
		rng = sim.NewRNG(cfg.Seed + uint64(node)).Split()
	}
	if bar != nil {
		bar.Wait(p)
	}
	slots := s.fileSize() / cfg.RecordBytes
	for r := 0; r < cfg.Records; r++ {
		if rng != nil {
			off := rng.Int63n(slots) * cfg.RecordBytes
			if _, err := h.Seek(p, off, pfs.SeekStart); err != nil {
				return err
			}
		}
		if s.reads() {
			_, err = h.Read(p, cfg.RecordBytes)
		} else {
			_, err = h.Write(p, cfg.RecordBytes)
		}
		if err != nil {
			return err
		}
	}
	return h.Close(p)
}

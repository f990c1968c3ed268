// Package escat is an I/O-faithful skeleton of the ESCAT electron-scattering
// code (Schwinger multichannel method) characterized in §5 of the paper.
//
// The skeleton reproduces the code's four I/O phases on 128 nodes:
//
//  1. Initialization: node 0 reads the problem definition from three input
//     files with M_UNIX (bimodal request sizes, temporally irregular — Figure
//  3. and broadcasts it over the mesh.
//  2. Quadrature: 52 synchronized compute/write cycles; every node seeks to a
//     calculated offset in each of two staging files (one per collision
//     outcome) and writes a 2 KB quadrature record with M_UNIX. The cycles'
//     compute time shrinks as the phase proceeds, giving Figure 4's burst
//     spacing of roughly 160 s early and half that late.
//  3. Reload: each node switches the staging handles to M_RECORD (setiomode)
//     and rereads exactly the quadrature data it wrote as one ~104 KB record
//     per file.
//  4. Output: the linear-system matrices are gathered to node 0 and written
//     to three output files as small writes.
//
// Request counts, sizes, file population and mode usage are constructed to
// match Tables 1-2 and Figures 2-5; see EXPERIMENTS.md for the mapping.
package escat

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traced run's fixed I/O shape: every run, whatever its scale, writes
// these record sizes to this many files.
const (
	quadRecordBytes = 2048 // quadrature record size (2 KB)
	outcomeFiles    = 2    // staging files, one per collision outcome
	outputWrites    = 6    // small matrix writes per output file
	outputBytes     = 1500 // size of each output write (~1.5 KB)

	seed = 0x45534341 // "ESCA"
)

// Config parameterizes the skeleton. The defaults reproduce the paper's
// traced run; smaller values give fast smoke tests.
type Config struct {
	Nodes        int      // compute nodes (paper: 128)
	Iterations   int      // quadrature compute/write cycles (52)
	ComputeStart sim.Time // compute per cycle at phase start (~145 s)
	ComputeEnd   sim.Time // compute per cycle at phase end (~65 s)

	// Ckpt, when non-nil, checkpoints the quadrature loop: every node
	// reports each completed iteration and the coordinator periodically
	// writes a consistent checkpoint. On a restart (ResumeUnit > 0) the
	// skeleton skips initialization, restores node state from the
	// checkpoint file, and resumes the loop at the committed iteration.
	Ckpt workload.Checkpointer
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Nodes:        128,
		Iterations:   52,
		ComputeStart: 145 * sim.Second,
		ComputeEnd:   65 * sim.Second,
	}
}

// SmallConfig returns a reduced configuration for fast tests: 8 nodes, 6
// cycles, millisecond-scale compute.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Nodes = 8
	c.Iterations = 6
	c.ComputeStart = 200 * sim.Millisecond
	c.ComputeEnd = 100 * sim.Millisecond
	return c
}

// CostModel returns the PFS calibration under which the skeleton reproduces
// Table 1's time columns (the ESCAT run's OSF/1 + PFS version; see
// EXPERIMENTS.md for the derivation of each constant).
func CostModel() pfs.CostModel {
	return pfs.CostModel{
		ClientOverhead:     500 * sim.Microsecond,
		AsyncIssue:         10 * sim.Millisecond,
		OpenService:        48 * sim.Millisecond,
		CreateService:      490 * sim.Millisecond,
		CloseService:       17 * sim.Millisecond,
		SeekService:        8800 * sim.Microsecond,
		LsizeService:       2 * sim.Millisecond,
		FlushService:       10 * sim.Millisecond,
		SharedTokenService: 2 * sim.Millisecond,
	}
}

// MachineConfig returns the full machine configuration for the paper run.
func MachineConfig() workload.MachineConfig {
	mc := workload.DefaultMachineConfig()
	mc.PFS.Cost = CostModel()
	mc.PFS.Disk.Position = 20 * sim.Millisecond
	return mc
}

// Phases attached to trace events.
const (
	PhaseInit       = iotrace.PhaseInitialization
	PhaseQuadrature = iotrace.PhaseQuadrature
	PhaseReload     = iotrace.PhaseReload
	PhaseOutput     = iotrace.PhaseOutput
)

// App is the runnable skeleton.
type App struct {
	cfg  Config
	errs *workload.NodeErrors
}

// New validates the configuration and builds the app.
func New(cfg Config) (*App, error) {
	if cfg.Nodes < 1 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("escat: invalid config %+v", cfg)
	}
	return &App{cfg: cfg}, nil
}

// Name implements workload.App.
func (*App) Name() string { return "escat" }

// regionBytes is the extent of one node's contiguous quadrature region in a
// staging file (all its iterations' records back to back) — also the
// M_RECORD record length used for the reload.
func (a *App) regionBytes() int64 {
	return int64(a.cfg.Iterations) * quadRecordBytes
}

// inputProfile describes node 0's reads of one input file: (count, size)
// runs issued in order. Across the three files the profile yields the
// bimodal distribution of Table 2: 297 reads under 4 KB, 3 of ~32 KB, 4 of
// ~200 KB. For reduced node counts the small-read count scales down.
type readRun struct {
	count int
	bytes int64
}

func (a *App) inputProfiles() [3][]readRun {
	small := a.cfg.Nodes * 100 / 128 // 100 at paper scale
	if small < 2 {
		small = 2
	}
	return [3][]readRun{
		{{small, 2048}},
		{{small - 1, 2048}, {2, 32 * 1024}, {2, 200 * 1024}},
		{{small - 2, 2048}, {1, 32 * 1024}, {2, 200 * 1024}},
	}
}

func (a *App) inputBytes() int64 {
	var total int64
	for _, runs := range a.inputProfiles() {
		for _, r := range runs {
			total += int64(r.count) * r.bytes
		}
	}
	return total
}

// pointerCached reports whether the original code's offset cache knows the
// pointer is already positioned for iteration it, so no repositioning seek is
// issued after the previous write. The calculated offsets are per-node
// contiguous, and the traced run shows 12,034 seeks against 13,330 writes
// (Table 1) — 47 repositionings per node and file over 52 cycles; the
// every-10th-cycle rule reproduces that ratio.
func pointerCached(it int) bool { return it > 0 && it%10 == 0 }

// outputFiles are the linear-system output files node 0 writes last.
var outputFiles = []string{"escat.sys0", "escat.sys1", "escat.sys2"}

// TraceEvents implements workload.App. Node 0's initialization opens, reads
// and closes each input file and rewinds files 2 and 3 once; every node then
// opens each staging file, seeks to its region, writes one record per cycle
// with a repositioning seek before each uncached next cycle, rereads the
// region and closes; node 0 ends with the output files. A resumed run skips
// initialization and the completed cycles.
func (a *App) TraceEvents() int {
	cfg := a.cfg
	resume, ckpt := 0, 0
	if cfg.Ckpt != nil {
		resume = cfg.Ckpt.ResumeUnit()
		ckpt = cfg.Ckpt.TraceEvents(cfg.Iterations)
	}
	n := 0
	if resume == 0 {
		for i, runs := range a.inputProfiles() {
			n += 2 // open, close
			for _, r := range runs {
				n += r.count
			}
			if i > 0 {
				n++ // header rewind
			}
		}
	}
	perFile := 4 + cfg.Iterations - resume // open, region seek, writes, reload read, close
	for next := resume + 1; next < cfg.Iterations; next++ {
		if !pointerCached(next) {
			perFile++
		}
	}
	n += cfg.Nodes * (outcomeFiles*perFile + ckpt)
	return n + len(outputFiles)*(2+outputWrites)
}

// Launch implements workload.App.
func (a *App) Launch(m *workload.Machine, fs workload.FS) error {
	cfg := a.cfg
	if cfg.Nodes > m.Nodes {
		return fmt.Errorf("escat: config wants %d nodes, machine has %d", cfg.Nodes, m.Nodes)
	}

	// A configured checkpointer may resume the quadrature loop mid-way: the
	// machine is freshly built after a crash, so the staging files must be
	// pre-populated with exactly the extent the completed iterations had
	// produced (node Nodes-1's region start plus resume records).
	resume := 0
	if cfg.Ckpt != nil {
		resume = cfg.Ckpt.ResumeUnit()
	}
	if resume > cfg.Iterations {
		return fmt.Errorf("escat: resume unit %d beyond %d iterations", resume, cfg.Iterations)
	}
	var quadSize int64
	if resume > 0 {
		quadSize = int64(cfg.Nodes-1)*a.regionBytes() + int64(resume)*quadRecordBytes
	}

	// File id layout mirrors Figure 5 (descriptor-style numbering): ids 0-2
	// are the standard streams, outputs land on 3-5, id 6 is the job
	// control stream, staging on 7-8, inputs on 9-11.
	fs.ReserveIDs(2)
	for _, n := range outputFiles {
		if _, err := fs.Preload(n, 0); err != nil {
			return fmt.Errorf("escat: %w", err)
		}
	}
	fs.ReserveIDs(1)
	quadNames := make([]string, outcomeFiles)
	for i := range quadNames {
		quadNames[i] = fmt.Sprintf("escat.quad%d", i)
		if _, err := fs.Preload(quadNames[i], quadSize); err != nil {
			return fmt.Errorf("escat: %w", err)
		}
	}
	inNames := []string{"escat.in0", "escat.in1", "escat.in2"}
	profiles := a.inputProfiles()
	for i, n := range inNames {
		var size int64
		for _, r := range profiles[i] {
			size += int64(r.count) * r.bytes
		}
		if _, err := fs.Preload(n, size); err != nil {
			return fmt.Errorf("escat: %w", err)
		}
	}

	errs := workload.NewNodeErrors(m.Eng)
	a.errs = errs
	initDone := sim.NewCompletion("escat-init")
	cycle := sim.NewBarrier(m.Eng, "escat-cycle", cfg.Nodes)
	reload := sim.NewBarrier(m.Eng, "escat-reload", cfg.Nodes)
	rng := sim.NewRNG(seed)
	nodeRNG := make([]*sim.RNG, cfg.Nodes)
	for i := range nodeRNG {
		nodeRNG[i] = rng.Split()
	}

	for node := 0; node < cfg.Nodes; node++ {
		node := node
		m.Eng.Spawn(fmt.Sprintf("escat-n%d", node), func(p *sim.Process) {
			if node == 0 {
				// A restart resumes from the checkpoint, not from the
				// inputs: initialization is already covered.
				if resume == 0 {
					if err := a.runInit(p, m, fs, profiles, inNames); err != nil {
						errs.Addf("node 0 init: %v", err)
					}
				}
				fs.SetPhase(PhaseQuadrature)
				initDone.Complete(p)
			} else {
				initDone.Await(p)
			}
			if resume > 0 {
				if err := cfg.Ckpt.Restore(p, fs, node); err != nil {
					errs.Addf("node %d restore: %v", node, err)
					return
				}
			}
			if err := a.runQuadrature(p, fs, node, resume, quadNames, nodeRNG[node], cycle); err != nil {
				errs.Addf("node %d quadrature: %v", node, err)
				return // a lost node would deadlock the barrier group
			}
			reload.Wait(p)
			if node == 0 {
				fs.SetPhase(PhaseOutput)
				if err := a.runOutput(p, m, fs, outputFiles); err != nil {
					errs.Addf("node 0 output: %v", err)
				}
			}
		})
	}
	return nil
}

// runInit is node 0's compulsory input phase.
func (a *App) runInit(p *sim.Process, m *workload.Machine, fs workload.FS,
	profiles [3][]readRun, inNames []string) error {
	fs.SetPhase(PhaseInit)
	r := sim.NewRNG(seed ^ 0x1717)
	for i, name := range inNames {
		h, err := fs.Open(p, 0, name, iotrace.ModeUnix)
		if err != nil {
			return err
		}
		first := true
		for _, run := range profiles[i] {
			for k := 0; k < run.count; k++ {
				if _, err := h.Read(p, run.bytes); err != nil {
					return fmt.Errorf("read %s: %w", name, err)
				}
				// Parsing between reads gives Figure 3's temporal
				// irregularity.
				p.Sleep(r.Uniform(2*sim.Millisecond, 40*sim.Millisecond))
			}
			if first && i > 0 {
				// Rewind after the header scan of files 2 and 3 — the two
				// initialization seeks in Table 1.
				if _, err := h.Seek(p, 0, pfs.SeekStart); err != nil {
					return err
				}
				first = false
			}
		}
		if err := h.Close(p); err != nil {
			return err
		}
	}
	// Broadcast the initialization data to the compute partition.
	m.Mesh.Broadcast(p, 0, a.cfg.Nodes, a.inputBytes())
	return nil
}

// runQuadrature is every node's synchronized compute/seek/write loop plus
// the M_RECORD reload.
func (a *App) runQuadrature(p *sim.Process, fs workload.FS,
	node, resume int, quadNames []string, rng *sim.RNG, cycle *sim.Barrier) error {
	handles := make([]workload.Handle, len(quadNames))
	for i, name := range quadNames {
		h, err := fs.Open(p, node, name, iotrace.ModeUnix)
		if err != nil {
			return err
		}
		handles[i] = h
	}
	region := a.regionBytes()
	span := float64(a.cfg.ComputeStart - a.cfg.ComputeEnd)
	// Position each file's pointer at this node's region — at the resumed
	// iteration's record on a restart — before the first cycle.
	for _, h := range handles {
		if _, err := h.Seek(p, int64(node)*region+int64(resume)*quadRecordBytes, pfs.SeekStart); err != nil {
			return err
		}
	}
	for it := resume; it < a.cfg.Iterations; it++ {
		frac := 0.0
		if a.cfg.Iterations > 1 {
			frac = float64(it) / float64(a.cfg.Iterations-1)
		}
		compute := a.cfg.ComputeStart - sim.Time(frac*span)
		p.Sleep(rng.Jitter(compute, 0.03))
		cycle.Wait(p)
		for _, h := range handles {
			// The pointer was positioned by the initial seek or the
			// previous cycle's repositioning.
			if _, err := h.Write(p, quadRecordBytes); err != nil {
				return err
			}
			// Reposition for the next cycle's calculated offset unless the
			// offset cache already matches (pointerCached).
			next := it + 1
			if next < a.cfg.Iterations && !pointerCached(next) {
				target := int64(node)*region + int64(next)*quadRecordBytes
				if _, err := h.Seek(p, target, pfs.SeekStart); err != nil {
					return err
				}
			}
		}
		if a.cfg.Ckpt != nil {
			if err := a.cfg.Ckpt.AfterUnit(p, fs, node, it); err != nil {
				return err
			}
		}
	}

	// Phase 3: reload this node's quadrature data as one M_RECORD record
	// per file (record k of round 0 belongs to node k — exactly the region
	// the node wrote, which is why ESCAT wrote with M_UNIX at calculated
	// offsets rather than M_RECORD; §5.2).
	cycle.Wait(p)
	if node == 0 {
		fs.SetPhase(PhaseReload)
	}
	for _, h := range handles {
		if err := h.SetIOMode(p, iotrace.ModeRecord, region); err != nil {
			return err
		}
		if _, err := h.Read(p, region); err != nil {
			return err
		}
	}
	for _, h := range handles {
		if err := h.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// runOutput is node 0's final gather-and-write phase.
func (a *App) runOutput(p *sim.Process, m *workload.Machine, fs workload.FS, outNames []string) error {
	m.Mesh.Gather(p, 0, a.cfg.Nodes, 256)
	for _, name := range outNames {
		h, err := fs.Open(p, 0, name, iotrace.ModeUnix)
		if err != nil {
			return err
		}
		for k := 0; k < outputWrites; k++ {
			if _, err := h.Write(p, outputBytes); err != nil {
				return err
			}
		}
		if err := h.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// Err reports failures recorded by node programs during the run.
func (a *App) Err() error { return a.errs.Err() }

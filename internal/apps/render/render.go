// Package render is an I/O-faithful skeleton of the RENDER terrain-rendering
// code (JPL's parallel ray-identification renderer for planetary flybys)
// characterized in §6 of the paper.
//
// The skeleton reproduces the hybrid control/data-parallel organization of
// Figure 1: a single gateway node mediates all file I/O for a group of
// renderer nodes. Its two phases:
//
//  1. Initialization: the gateway reads the multi-hundred-megabyte terrain
//     data set from four files using explicitly prefetched asynchronous
//     M_UNIX reads (3 MB requests, then 1.5 MB — Figure 6), and broadcasts
//     the data to the renderers, which select their subsets.
//  2. Rendering: per frame, the gateway reads a ~70-byte view-coordinate
//     record from the control file, the renderers produce the view, and the
//     gateway collects and writes a 640x512 24-bit frame (983,040 bytes,
//     plus two tiny header/trailer writes) to a fresh output file — the
//     staircase of Figure 8. In production these writes go to a HiPPi frame
//     buffer; the traced runs (and this skeleton) direct them to the file
//     system.
//
// Request counts, sizes and file population match Tables 3-4 and Figures
// 6-8; see EXPERIMENTS.md.
package render

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TerrainFile describes one input data file: how many asynchronous reads it
// takes and at what request size.
type TerrainFile struct {
	Reads     int
	ReadBytes int64
}

// The traced run's fixed request shape, the same at every scale.
const (
	prefetchDepth = 2             // async terrain reads kept in flight
	headerBytes   = 60            // size of each control-file header read (~60 B)
	viewBytes     = 72            // size of each per-frame view read (~72 B)
	frameBytes    = 640 * 512 * 3 // image size: 983,040 bytes
	frameExtra    = 7             // tiny header/trailer writes around each frame

	seed = 0x52454e44 // "REND"
)

// Config parameterizes the skeleton. Defaults reproduce the paper's traced
// run (Mars Viking data, 100 frames).
type Config struct {
	RenderNodes  int           // renderer group size (paper: 128)
	Frames       int           // views rendered (100)
	Terrain      []TerrainFile // input data set layout
	HeaderReads  int           // small control-file reads at startup (21)
	SetupCompute sim.Time      // renderer subset selection after broadcast
	FrameCompute sim.Time      // rendering time per frame (~1.9 s)
}

// DefaultConfig returns the paper-scale configuration: 436 asynchronous
// reads totalling ~880 MB across four terrain files.
func DefaultConfig() Config {
	return Config{
		RenderNodes: 128,
		Frames:      100,
		// 124 reads of 3 MiB plus 312 of 1.5 MiB: 436 asynchronous reads
		// moving 880,803,840 bytes (paper: 436 reads, 880,849,125 bytes).
		Terrain: []TerrainFile{
			{Reads: 62, ReadBytes: 3 << 20},
			{Reads: 62, ReadBytes: 3 << 20},
			{Reads: 156, ReadBytes: 3 << 19}, // 1.5 MB
			{Reads: 156, ReadBytes: 3 << 19},
		},
		HeaderReads:  21,
		SetupCompute: 30 * sim.Second,
		FrameCompute: 1900 * sim.Millisecond,
	}
}

// SmallConfig returns a reduced configuration for fast tests.
func SmallConfig() Config {
	c := DefaultConfig()
	c.RenderNodes = 8
	c.Frames = 5
	c.Terrain = []TerrainFile{
		{Reads: 4, ReadBytes: 3 << 20},
		{Reads: 6, ReadBytes: 3 << 19},
	}
	c.HeaderReads = 3
	c.SetupCompute = 100 * sim.Millisecond
	c.FrameCompute = 50 * sim.Millisecond
	return c
}

// CostModel returns the PFS calibration for the RENDER run (its OSF/1
// version; see EXPERIMENTS.md).
func CostModel() pfs.CostModel {
	return pfs.CostModel{
		ClientOverhead:     500 * sim.Microsecond,
		AsyncIssue:         10500 * sim.Microsecond,
		OpenService:        250 * sim.Millisecond,
		CreateService:      300 * sim.Millisecond,
		CloseService:       68 * sim.Millisecond,
		SeekService:        30 * sim.Millisecond,
		LsizeService:       2 * sim.Millisecond,
		FlushService:       10 * sim.Millisecond,
		SharedTokenService: 2 * sim.Millisecond,
	}
}

// MachineConfig returns the machine configuration for the paper run; the
// study sizes its compute partition to the gateway plus the renderers.
func MachineConfig() workload.MachineConfig {
	mc := workload.DefaultMachineConfig()
	mc.PFS.Cost = CostModel()
	mc.PFS.Disk.Overhead = 1 * sim.Millisecond
	mc.PFS.Disk.BWBytesPerS = 12e6
	return mc
}

// Phases attached to trace events.
const (
	PhaseInit   = iotrace.PhaseInitialization
	PhaseRender = iotrace.PhaseRendering
)

// App is the runnable skeleton. The gateway is node 0; renderers are nodes
// 1..RenderNodes.
type App struct {
	cfg  Config
	errs *workload.NodeErrors
}

// New implements workload.AppConfig: it validates the configuration and
// builds the app.
func (c Config) New() (workload.App, error) {
	if c.RenderNodes < 1 || c.Frames < 0 || len(c.Terrain) == 0 {
		return nil, fmt.Errorf("render: invalid config %+v", c)
	}
	for _, tf := range c.Terrain {
		if tf.Reads < 1 || tf.ReadBytes < 1 {
			return nil, fmt.Errorf("render: invalid terrain file %+v", tf)
		}
	}
	return &App{cfg: c}, nil
}

// ComputeNodes implements workload.AppConfig: the gateway plus the renderers.
func (c Config) ComputeNodes() int { return c.RenderNodes + 1 }

// WithNodes implements workload.AppConfig: one node is the gateway, the rest
// render.
func (c Config) WithNodes(n int) (workload.AppConfig, error) {
	if n < 2 {
		return nil, fmt.Errorf("render needs >= 2 (1 master + renderers), got %d", n)
	}
	c.RenderNodes = n - 1
	return c, nil
}

// WithCkpt implements workload.AppConfig: render has no work loop to
// checkpoint.
func (c Config) WithCkpt(workload.Checkpointer) (workload.AppConfig, bool) { return c, false }

// OutputPrefixes implements workload.AppConfig: the rendered frames.
func (Config) OutputPrefixes() []string { return []string{"frame"} }

// Name implements workload.App.
func (*App) Name() string { return Name }

// TerrainBytes returns the total data-set size.
func (a *App) TerrainBytes() int64 {
	var total int64
	for _, tf := range a.cfg.Terrain {
		total += int64(tf.Reads) * tf.ReadBytes
	}
	return total
}

// TraceEvents implements workload.App. The gateway opens and closes the
// run-control file; opens and rewinds each terrain file and issues and waits
// on every asynchronous read; opens the view file and reads its header and
// one view per frame; and creates, writes (header, image, trailer) and closes
// one output file per frame.
func (a *App) TraceEvents() int {
	cfg := a.cfg
	n := 2 + 1 + cfg.HeaderReads + 6*cfg.Frames
	for _, tf := range cfg.Terrain {
		n += 2 + 2*tf.Reads
	}
	return n
}

// Launch implements workload.App.
func (a *App) Launch(m *workload.Machine, fs workload.FS) error {
	cfg := a.cfg
	if cfg.RenderNodes+1 > m.Nodes {
		return fmt.Errorf("render: config wants %d nodes, machine has %d", cfg.RenderNodes+1, m.Nodes)
	}

	// File population: ids 0-2 are the standard streams; then the rc file,
	// the four terrain files, and the view control file. Output files are
	// created per frame during rendering, so their ids ascend with time —
	// Figure 8's staircase.
	fs.ReserveIDs(2)
	if _, err := fs.Preload("render.rc", 64); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	terrainNames := make([]string, len(cfg.Terrain))
	for i, tf := range cfg.Terrain {
		terrainNames[i] = fmt.Sprintf("terrain%d", i)
		if _, err := fs.Preload(terrainNames[i], int64(tf.Reads)*tf.ReadBytes); err != nil {
			return fmt.Errorf("render: %w", err)
		}
	}
	viewsSize := int64(cfg.HeaderReads)*headerBytes + int64(cfg.Frames)*viewBytes
	if _, err := fs.Preload("views", viewsSize); err != nil {
		return fmt.Errorf("render: %w", err)
	}

	errs := workload.NewNodeErrors(m.Eng)
	a.errs = errs
	frameStart := sim.NewBarrier(m.Eng, "render-frame-start", cfg.RenderNodes+1)
	frameDone := sim.NewBarrier(m.Eng, "render-frame-done", cfg.RenderNodes+1)
	rng := sim.NewRNG(seed)
	nodeRNG := make([]*sim.RNG, cfg.RenderNodes+1)
	for i := range nodeRNG {
		nodeRNG[i] = rng.Split()
	}

	m.Eng.Spawn("render-gateway", func(p *sim.Process) {
		if err := a.runGateway(p, m, fs, terrainNames, frameStart, frameDone); err != nil {
			errs.Addf("gateway: %v", err)
		}
	})
	for r := 1; r <= cfg.RenderNodes; r++ {
		r := r
		m.Eng.Spawn(fmt.Sprintf("render-r%d", r), func(p *sim.Process) {
			a.runRenderer(p, nodeRNG[r], frameStart, frameDone)
		})
	}
	return nil
}

// runGateway is node 0: all file I/O plus frame orchestration.
func (a *App) runGateway(p *sim.Process, m *workload.Machine, fs workload.FS,
	terrainNames []string, frameStart, frameDone *sim.Barrier) error {
	cfg := a.cfg
	fs.SetPhase(PhaseInit)

	// Startup: consult the run-control file.
	rc, err := fs.Open(p, 0, "render.rc", iotrace.ModeUnix)
	if err != nil {
		return err
	}
	if err := rc.Close(p); err != nil {
		return err
	}

	// Read the terrain data set with explicitly prefetched async reads.
	for i, name := range terrainNames {
		h, err := fs.Open(p, 0, name, iotrace.ModeUnix)
		if err != nil {
			return err
		}
		// Rewind to the file origin — the four zero-distance seeks of
		// Table 3.
		if _, err := h.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
		tf := cfg.Terrain[i]
		var inflight []workload.AsyncRead
		for r := 0; r < tf.Reads; r++ {
			ar, err := h.ReadAsync(p, tf.ReadBytes)
			if err != nil {
				return err
			}
			inflight = append(inflight, ar)
			if len(inflight) >= prefetchDepth {
				if _, err := inflight[0].Wait(p); err != nil {
					return err
				}
				inflight = inflight[1:]
			}
		}
		for _, ar := range inflight {
			if _, err := ar.Wait(p); err != nil {
				return err
			}
		}
		// Terrain files stay open for the life of the run.
	}

	// Broadcast the data set; renderers select their subsets.
	m.Mesh.Broadcast(p, 0, cfg.RenderNodes+1, a.TerrainBytes())
	p.Sleep(cfg.SetupCompute)

	// Read the control-file header.
	views, err := fs.Open(p, 0, "views", iotrace.ModeUnix)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.HeaderReads; i++ {
		if _, err := views.Read(p, headerBytes); err != nil {
			return err
		}
	}

	fs.SetPhase(PhaseRender)
	for frame := 0; frame < cfg.Frames; frame++ {
		// Next view perspective request.
		if _, err := views.Read(p, viewBytes); err != nil {
			return err
		}
		m.Mesh.Broadcast(p, 0, cfg.RenderNodes+1, viewBytes)
		frameStart.Wait(p) // release the renderers
		frameDone.Wait(p)  // rendering complete
		m.Mesh.Gather(p, 0, cfg.RenderNodes+1, frameBytes/int64(cfg.RenderNodes))

		out, err := fs.Create(p, 0, fmt.Sprintf("frame%04d", frame), iotrace.ModeUnix)
		if err != nil {
			return err
		}
		if _, err := out.Write(p, frameExtra); err != nil {
			return err
		}
		if _, err := out.Write(p, frameBytes); err != nil {
			return err
		}
		if _, err := out.Write(p, frameExtra); err != nil {
			return err
		}
		if err := out.Close(p); err != nil {
			return err
		}
	}
	// The control file, like the terrain files, is never closed: Table 3
	// counts 106 opens but only 101 closes.
	return nil
}

// runRenderer is one renderer node: no file I/O, just the per-frame compute
// between the gateway's barriers.
func (a *App) runRenderer(p *sim.Process, rng *sim.RNG, frameStart, frameDone *sim.Barrier) {
	p.Sleep(a.cfg.SetupCompute)
	for frame := 0; frame < a.cfg.Frames; frame++ {
		frameStart.Wait(p)
		p.Sleep(rng.Jitter(a.cfg.FrameCompute, 0.05))
		frameDone.Wait(p)
	}
}

// Err reports failures recorded during the run.
func (a *App) Err() error { return a.errs.Err() }

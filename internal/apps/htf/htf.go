// Package htf is an I/O-faithful skeleton of the Hartree-Fock quantum
// chemistry application (three Fortran programs run as a pipeline)
// characterized in §7 of the paper:
//
//   - psetup ("initialization"): node 0 reads the initial 16-atom input,
//     transforms it, and writes the setup files — hundreds of small-to-mid
//     reads and writes, with the writes visibly cheapened by Fortran runtime
//     buffering (Table 5's 5.5 s for 452 writes).
//   - pargos ("integral calculation"): every node creates its own integral
//     file (the open storm that makes open 63% of the phase's I/O time),
//     sizes it (LSIZE), then alternates long integral computations with
//     ~80 KB record writes, each followed by FORFLUSH.
//   - pscf ("self-consistent field"): every node rereads its integral file
//     once per SCF pass — the files are too large to keep in memory — with a
//     rewind seek between passes (Table 5's 3.5 GB of seek "volume"), while
//     node 0 maintains density/Fock side files.
//
// Request counts, sizes, file roles and mode usage (M_UNIX exclusively)
// match Tables 5-6 and Figures 9-17; see EXPERIMENTS.md.
package htf

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The §7.2 recompute cost model: recomputing one integral takes ~500
// floating-point operations on a node sustaining ~50 MFLOP/s (the Paragon's
// i860), and the traced 16-atom data set stores ~56 bytes per integral.
const (
	FlopsPerIntegral = 500
	NodeFlopRate     = 50e6 // FLOP/s per node
	BytesPerIntegral = 56
)

const (
	recordBytes = 81920 // integral record size, at every scale

	seed = 0x48544600 // "HTF"
)

// Config parameterizes the skeleton.
type Config struct {
	Nodes           int // compute nodes (paper: 128)
	IntegralRecords int // total two-electron integral records (8,532)
	SCFPasses       int // full rereads of the integral files (6)
	ExtraSCFRecords int // node 0's partial convergence pass (33)

	ComputePerIntegral sim.Time // pargos: integral block computation (~16.5 s)
	ComputePerSCFRead  sim.Time // pscf: Fock contribution per record (~1.8 s)
	PsetupCompute      sim.Time // psetup: transform time between operations

	// RecomputeIntegrals selects the §7.2 alternative the HTF group
	// actually ships: instead of rereading stored integral records in
	// every SCF pass, recompute them (FlopsPerIntegral each). The traced
	// run — and the default — is the reread variant the developers would
	// *like* to use.
	RecomputeIntegrals bool

	// Ckpt, when non-nil, checkpoints the SCF loop: each completed pass is
	// one work unit. On a restart (ResumeUnit > 0) the skeleton skips
	// psetup and pargos — their outputs are pre-populated — restores node
	// state from the checkpoint file, and resumes pscf at the committed
	// pass.
	Ckpt workload.Checkpointer
}

// recomputeTimePerRecord returns the time to recompute one integral
// record's worth of integrals instead of reading it.
func recomputeTimePerRecord() sim.Time {
	integrals := float64(recordBytes) / BytesPerIntegral
	return sim.Time(integrals * FlopsPerIntegral / NodeFlopRate * float64(sim.Second))
}

// DefaultConfig returns the paper-scale configuration (16 atoms, 128 nodes).
func DefaultConfig() Config {
	return Config{
		Nodes:              128,
		IntegralRecords:    8532,
		SCFPasses:          6,
		ExtraSCFRecords:    33,
		ComputePerIntegral: 16500 * sim.Millisecond,
		ComputePerSCFRead:  1750 * sim.Millisecond,
		PsetupCompute:      80 * sim.Millisecond,
	}
}

// SmallConfig returns a reduced configuration for fast tests.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Nodes = 8
	c.IntegralRecords = 36
	c.SCFPasses = 2
	c.ExtraSCFRecords = 3
	c.ComputePerIntegral = 50 * sim.Millisecond
	c.ComputePerSCFRead = 20 * sim.Millisecond
	c.PsetupCompute = 1 * sim.Millisecond
	return c
}

// CostModel returns the PFS calibration for the HTF runs (see
// EXPERIMENTS.md; the Fortran runtime's write buffering and the LSIZE and
// FORFLUSH costs are specific to this code).
func CostModel() pfs.CostModel {
	return pfs.CostModel{
		ClientOverhead:     500 * sim.Microsecond,
		AsyncIssue:         10 * sim.Millisecond,
		OpenService:        63 * sim.Millisecond,
		CreateService:      495 * sim.Millisecond,
		FirstOpenPenalty:   31200 * sim.Millisecond,
		CloseService:       73 * sim.Millisecond,
		SeekService:        1 * sim.Millisecond,
		LsizeService:       119 * sim.Millisecond,
		FlushService:       35 * sim.Millisecond,
		SharedTokenService: 2 * sim.Millisecond,
		WriteBufferBytes:   64 * 1024,
		ReadCopyBytesPerS:  325e3,
		ReadCopyMin:        64 * 1024,
	}
}

// MachineConfig returns the machine configuration for the paper runs. The
// disk parameters reflect the heavier per-request software path of the HTF
// epoch's I/O system (see EXPERIMENTS.md).
func MachineConfig() workload.MachineConfig {
	mc := workload.DefaultMachineConfig()
	mc.ComputeNodes = DefaultConfig().Nodes
	mc.PFS.Cost = CostModel()
	mc.PFS.Disk.Position = 50 * sim.Millisecond
	mc.PFS.Disk.Overhead = 25 * sim.Millisecond
	mc.PFS.Disk.BWBytesPerS = 1.2e6
	return mc
}

// Phases attached to trace events — the paper's three program names.
const (
	PhasePsetup = iotrace.PhasePsetup
	PhasePargos = iotrace.PhasePargos
	PhasePscf   = iotrace.PhasePscf
)

// App is the runnable skeleton.
type App struct {
	cfg  Config
	errs *workload.NodeErrors
}

// New validates the configuration and builds the app.
func New(cfg Config) (*App, error) {
	if cfg.Nodes < 1 || cfg.IntegralRecords < cfg.Nodes {
		return nil, fmt.Errorf("htf: invalid config %+v", cfg)
	}
	if cfg.SCFPasses < 1 || cfg.ExtraSCFRecords < 0 {
		return nil, fmt.Errorf("htf: invalid passes in config %+v", cfg)
	}
	return &App{cfg: cfg}, nil
}

// Name implements workload.App.
func (*App) Name() string { return "htf" }

// RecordsForNode distributes the integral records across nodes (remainder to
// the low-numbered nodes): at paper scale, nodes 0-83 hold 67 records and
// nodes 84-127 hold 66.
func (a *App) RecordsForNode(node int) int {
	base := a.cfg.IntegralRecords / a.cfg.Nodes
	if node < a.cfg.IntegralRecords%a.cfg.Nodes {
		return base + 1
	}
	return base
}

// readRun is a run of identical requests.
type readRun struct {
	count int
	bytes int64
}

// psetup I/O profiles (node 0 only). Together with the two 26/27-byte
// correction writes: 371 reads (151 < 4 KB, 220 < 64 KB, ~3.52 MB) and 452
// writes (218 < 4 KB, 234 < 64 KB, ~3.76 MB), matching Tables 5-6.
var (
	psetupReads = map[string][]readRun{
		"htf.input": {{75, 2200}, {110, 14500}},
		"htf.basis": {{76, 2200}, {110, 14500}},
	}
	psetupWrites = map[string][]readRun{
		"htf.setup":  {{108, 2200}, {117, 14000}},
		"htf.setup2": {{108, 2200}, {117, 14000}},
	}
)

// pscf per-pass node-0 side-file activity: 27 small + 18 mid reads, 7 small
// + 26 mid + 1 large writes, 7 seeks, 4 scratch open/close pairs — summing
// with the initial activity to Table 5's 165/109 small/mid reads, 43/158/6
// writes, 45 extra seeks, and 29/28 extra opens/closes.
const (
	pscfPassSmallReads  = 27
	pscfPassMidReads    = 18
	pscfPassSmallWrites = 7
	pscfPassMidWrites   = 26
	pscfPassLargeWrites = 1
	pscfPassSeeks       = 7
	pscfPassScratch     = 4
	pscfSmallBytes      = 2200
	pscfMidReadBytes    = 30000
	pscfMidWriteBytes   = 20000
	pscfLargeBytes      = 100000
)

// TraceEvents implements workload.App: psetup and pargos, then the SCF
// passes. A resumed run skips the first two programs and the completed
// passes.
func (a *App) TraceEvents() int {
	cfg := a.cfg
	resume, ckpt := 0, 0
	if cfg.Ckpt != nil {
		resume = cfg.Ckpt.ResumeUnit()
		ckpt = cfg.Ckpt.TraceEvents(cfg.SCFPasses)
	}
	n := cfg.Nodes * ckpt
	if resume == 0 {
		n += psetupEvents() + a.pargosEvents()
	}
	return n + a.pscfEvents(resume)
}

// psetupEvents counts node 0's psetup: four opens, every profiled read and
// write, a correction seek and write per output file, and three closes.
func psetupEvents() int {
	n := 4 + 3
	for _, profile := range []map[string][]readRun{psetupReads, psetupWrites} {
		for _, runs := range profile {
			for _, r := range runs {
				n += r.count
			}
		}
	}
	return n + 2*len(psetupWrites)
}

// pargosEvents counts pargos: node 0's setup consultation (two opens and
// rewinds, 145 reads, a close) and header records (three writes, three
// flushes); every node's create, rewind, LSIZE and close; a write and flush
// per integral record; and the residual flushes.
func (a *App) pargosEvents() int {
	node0 := 2 + 2 + 143 + 2 + 1 + 3 + 3
	return node0 + 4*a.cfg.Nodes + 2*a.cfg.IntegralRecords + residualFlushNodes(a.cfg.Nodes)
}

// pscfEvents counts pscf from pass resume: every node opens and closes its
// integral file and per pass rewinds and (unless recomputing) rereads it;
// node 0 opens its five side files (closing four), seeds the iteration, does
// its per-pass side work, and ends with the partial convergence pass.
func (a *App) pscfEvents(resume int) int {
	cfg := a.cfg
	perPass := cfg.Nodes + pscfPassScratch*2 + pscfPassSeeks +
		pscfPassSmallReads + pscfPassMidReads +
		pscfPassSmallWrites + pscfPassMidWrites + pscfPassLargeWrites
	if !cfg.RecomputeIntegrals {
		perPass += cfg.IntegralRecords
	}
	extra := cfg.ExtraSCFRecords
	if records := a.RecordsForNode(0); extra > records {
		extra = records
	}
	node0 := 5 + 4 + 2 + 4 + 3 + 1 + extra
	return 2*cfg.Nodes + node0 + (cfg.SCFPasses-resume)*perPass
}

// Launch implements workload.App.
func (a *App) Launch(m *workload.Machine, fs workload.FS) error {
	cfg := a.cfg
	if cfg.Nodes > m.Nodes {
		return fmt.Errorf("htf: config wants %d nodes, machine has %d", cfg.Nodes, m.Nodes)
	}

	// A configured checkpointer may resume the SCF loop mid-way: the
	// machine is freshly built after a crash, so psetup and pargos are not
	// re-run and their output files must be pre-populated with exactly the
	// extent the completed programs had produced.
	resume := 0
	if cfg.Ckpt != nil {
		resume = cfg.Ckpt.ResumeUnit()
	}
	if resume > cfg.SCFPasses {
		return fmt.Errorf("htf: resume pass %d beyond %d SCF passes", resume, cfg.SCFPasses)
	}
	if resume > 0 {
		for _, name := range []string{"htf.setup", "htf.setup2"} {
			var size int64
			for _, r := range psetupWrites[name] {
				size += int64(r.count) * r.bytes
			}
			if _, err := fs.Preload(name, size); err != nil {
				return fmt.Errorf("htf: %w", err)
			}
		}
		for node := 0; node < cfg.Nodes; node++ {
			size := int64(a.RecordsForNode(node)) * recordBytes
			if node == 0 {
				size += 2000 + 2000 + 30000 // pargos header records
			}
			if _, err := fs.Preload(integralFile(node), size); err != nil {
				return fmt.Errorf("htf: %w", err)
			}
		}
	}

	fs.ReserveIDs(2)
	for _, name := range []string{"htf.input", "htf.basis"} {
		var size int64
		for _, r := range psetupReads[name] {
			size += int64(r.count) * r.bytes
		}
		if _, err := fs.Preload(name, size); err != nil {
			return fmt.Errorf("htf: %w", err)
		}
	}
	// Density/overlap restart files from a previous production run, reread
	// by every SCF pass.
	sideSizes := []int64{
		int64(3+pscfPassSmallReads*cfg.SCFPasses+8) * pscfSmallBytes,
		int64(1+pscfPassMidReads*cfg.SCFPasses+4) * pscfMidReadBytes,
		256 * 1024,
		256 * 1024,
		256 * 1024,
	}
	for i, size := range sideSizes {
		if _, err := fs.Preload(fmt.Sprintf("pscf.side%d", i), size); err != nil {
			return fmt.Errorf("htf: %w", err)
		}
	}

	errs := workload.NewNodeErrors(m.Eng)
	a.errs = errs
	pargosStart := sim.NewBarrier(m.Eng, "htf-pargos-start", cfg.Nodes)
	pscfStart := sim.NewBarrier(m.Eng, "htf-pscf-start", cfg.Nodes)
	passBarrier := sim.NewBarrier(m.Eng, "htf-pass", cfg.Nodes)
	rng := sim.NewRNG(seed)
	nodeRNG := make([]*sim.RNG, cfg.Nodes)
	for i := range nodeRNG {
		nodeRNG[i] = rng.Split()
	}

	for node := 0; node < cfg.Nodes; node++ {
		node := node
		m.Eng.Spawn(fmt.Sprintf("htf-n%d", node), func(p *sim.Process) {
			if resume > 0 {
				if node == 0 {
					fs.SetPhase(PhasePscf)
				}
				pscfStart.Wait(p)
				if err := cfg.Ckpt.Restore(p, fs, node); err != nil {
					errs.Addf("pscf node %d restore: %v", node, err)
					return
				}
				if err := a.runPscf(p, fs, node, resume, nodeRNG[node], passBarrier); err != nil {
					errs.Addf("pscf node %d: %v", node, err)
					return
				}
				return
			}
			if node == 0 {
				if err := a.runPsetup(p, fs); err != nil {
					errs.Addf("psetup: %v", err)
					return
				}
				fs.SetPhase(PhasePargos)
			}
			pargosStart.Wait(p)
			if err := a.runPargos(p, fs, node, nodeRNG[node]); err != nil {
				errs.Addf("pargos node %d: %v", node, err)
				return
			}
			pscfStart.Wait(p)
			if node == 0 {
				fs.SetPhase(PhasePscf)
			}
			if err := a.runPscf(p, fs, node, 0, nodeRNG[node], passBarrier); err != nil {
				errs.Addf("pscf node %d: %v", node, err)
				return
			}
		})
	}
	return nil
}

// runPsetup is the first program: node 0 reads the initial input, transforms
// it, and writes the setup files.
func (a *App) runPsetup(p *sim.Process, fs workload.FS) error {
	fs.SetPhase(PhasePsetup)
	r := sim.NewRNG(seed ^ 0x9e7)

	inNames := []string{"htf.input", "htf.basis"}
	outNames := []string{"htf.setup", "htf.setup2"}
	in := make([]workload.Handle, len(inNames))
	out := make([]workload.Handle, len(outNames))
	for i, name := range inNames {
		h, err := fs.Open(p, 0, name, iotrace.ModeUnix)
		if err != nil {
			return err
		}
		in[i] = h
	}
	for i, name := range outNames {
		h, err := fs.Create(p, 0, name, iotrace.ModeUnix)
		if err != nil {
			return err
		}
		out[i] = h
	}

	// Interleave reads, transforms, and buffered writes.
	for i := range inNames {
		reads, writes := psetupReads[inNames[i]], psetupWrites[outNames[i]]
		ri, wi := expand(reads), expand(writes)
		n := len(ri)
		if len(wi) > n {
			n = len(wi)
		}
		for k := 0; k < n; k++ {
			if k < len(ri) {
				if _, err := in[i].Read(p, ri[k]); err != nil {
					return err
				}
			}
			p.Sleep(r.Jitter(a.cfg.PsetupCompute, 0.3))
			if k < len(wi) {
				if _, err := out[i].Write(p, wi[k]); err != nil {
					return err
				}
			}
		}
		// A small backward correction seek on each output — Table 5's two
		// psetup seeks of 26 and 27 bytes.
		if _, err := out[i].Seek(p, -int64(26+i), pfs.SeekCurrent); err != nil {
			return err
		}
		if _, err := out[i].Write(p, int64(26+i)); err != nil {
			return err
		}
	}

	// Three of the four files close; htf.input is inherited by pargos.
	for _, h := range []workload.Handle{in[1], out[0], out[1]} {
		if err := h.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// expand flattens readRuns into per-request sizes.
func expand(runs []readRun) []int64 {
	var out []int64
	for _, r := range runs {
		for i := 0; i < r.count; i++ {
			out = append(out, r.bytes)
		}
	}
	return out
}

// integralFile names node k's integral file.
func integralFile(node int) string { return fmt.Sprintf("integrals.%03d", node) }

// runPargos is the second program: per-node integral files, written record
// by record with a FORFLUSH after every write.
func (a *App) runPargos(p *sim.Process, fs workload.FS, node int, rng *sim.RNG) error {
	cfg := a.cfg
	var setup workload.Handle
	if node == 0 {
		// Node 0 consults the setup data and broadcasts parameters: 143
		// small and 2 mid reads (Table 5's integral-phase reads), plus the
		// two zero-distance rewinds that, with the per-node ones below,
		// give the phase's 130 zero-volume seeks.
		h, err := fs.Open(p, 0, "htf.setup", iotrace.ModeUnix)
		if err != nil {
			return err
		}
		setup = h
		if _, err := setup.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
		for i := 0; i < 143; i++ {
			if _, err := h.Read(p, 2200); err != nil {
				return err
			}
		}
		h2, err := fs.Open(p, 0, "htf.setup2", iotrace.ModeUnix)
		if err != nil {
			return err
		}
		if _, err := h2.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, err := h2.Read(p, 14500); err != nil {
				return err
			}
		}
		// setup2 is consulted once and inherited by the environment (its
		// close is not part of the traced program).
	}

	h, err := fs.Create(p, node, integralFile(node), iotrace.ModeUnix)
	if err != nil {
		return err
	}
	// Every node rewinds its fresh integral file: 128 of the phase's 130
	// zero-distance seeks.
	if _, err := h.Seek(p, 0, pfs.SeekStart); err != nil {
		return err
	}
	if node == 0 {
		// Header records ahead of the integrals: the phase's 2 small + 1
		// mid writes.
		for _, n := range []int64{2000, 2000, 30000} {
			if _, err := h.Write(p, n); err != nil {
				return err
			}
			if err := h.Flush(p); err != nil {
				return err
			}
		}
	}
	if _, err := h.Lsize(p); err != nil {
		return err
	}

	for rec := 0; rec < a.RecordsForNode(node); rec++ {
		p.Sleep(rng.Jitter(cfg.ComputePerIntegral, 0.05))
		if _, err := h.Write(p, recordBytes); err != nil {
			return err
		}
		if err := h.Flush(p); err != nil {
			return err
		}
	}
	// The original code flushes once more before close unless the last
	// record drained the runtime buffer; the traced run shows 8,657
	// FORFLUSHes = 8,535 writes + 122 residual flushes.
	if node < residualFlushNodes(cfg.Nodes) {
		if err := h.Flush(p); err != nil {
			return err
		}
	}
	if err := h.Close(p); err != nil {
		return err
	}
	if node == 0 {
		if err := setup.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// residualFlushNodes scales the 122-of-128 residual-flush count.
func residualFlushNodes(nodes int) int {
	n := nodes * 122 / 128
	if n < 1 {
		n = 1
	}
	return n
}

// runPscf is the third program: every node rereads its integral file once
// per SCF pass; node 0 additionally maintains the density/Fock side files.
// resume is the first pass to run (> 0 after a checkpoint restart).
func (a *App) runPscf(p *sim.Process, fs workload.FS, node, resume int, rng *sim.RNG, pass *sim.Barrier) error {
	cfg := a.cfg
	h, err := fs.Open(p, node, integralFile(node), iotrace.ModeUnix)
	if err != nil {
		return err
	}

	var side []workload.Handle
	if node == 0 {
		// Open the five restart/side files (with the integral opens: the
		// phase's 157 opens), rewind the two densities (2 of the 45 node-0
		// seeks), and seed the iteration: 3 small + 1 mid reads, 1 small +
		// 2 mid writes.
		for i := 0; i < 5; i++ {
			s, err := fs.Open(p, 0, fmt.Sprintf("pscf.side%d", i), iotrace.ModeUnix)
			if err != nil {
				return err
			}
			side = append(side, s)
		}
		for i := 0; i < 2; i++ {
			if _, err := side[i].Seek(p, 0, pfs.SeekStart); err != nil {
				return err
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := side[0].Read(p, pscfSmallBytes); err != nil {
				return err
			}
		}
		if _, err := side[1].Read(p, pscfMidReadBytes); err != nil {
			return err
		}
		if _, err := side[2].Write(p, pscfSmallBytes); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if _, err := side[3].Write(p, pscfMidWriteBytes); err != nil {
				return err
			}
		}
	}

	records := a.RecordsForNode(node)
	for ps := resume; ps < cfg.SCFPasses; ps++ {
		pass.Wait(p)
		// Rewind to the start of the integral file. On the first pass the
		// pointer is already at zero, so the traced seek distance sums to
		// (passes-1) x file size per node — Table 5's 3.5 GB.
		if _, err := h.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
		if node == 0 {
			if err := a.pscfSideWork(p, fs, side, ps); err != nil {
				return err
			}
		}
		for rec := 0; rec < records; rec++ {
			if cfg.RecomputeIntegrals {
				// §7.2 recompute variant: ~500 FLOPs per integral instead
				// of a record read.
				p.Sleep(recomputeTimePerRecord())
			} else if _, err := h.Read(p, recordBytes); err != nil {
				return err
			}
			p.Sleep(rng.Jitter(cfg.ComputePerSCFRead, 0.05))
		}
		if cfg.Ckpt != nil {
			if err := cfg.Ckpt.AfterUnit(p, fs, node, ps); err != nil {
				return err
			}
		}
	}

	if node == 0 {
		// Convergence check: a partial extra pass over the first records.
		if _, err := h.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
		extra := cfg.ExtraSCFRecords
		if extra > records {
			extra = records
		}
		for rec := 0; rec < extra; rec++ {
			if _, err := h.Read(p, recordBytes); err != nil {
				return err
			}
		}
	}

	// Final Fock assembly and diagonalization before the files close; its
	// data-dependent duration staggers the nodes' closes.
	p.Sleep(rng.Uniform(2*sim.Second, 40*sim.Second))
	if err := h.Close(p); err != nil {
		return err
	}
	if node == 0 {
		// Close four of the five side files; one is left open (Table 5:
		// 157 opens, 156 closes).
		for _, s := range side[1:] {
			if err := s.Close(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// pscfSideWork is node 0's per-pass density/Fock maintenance: 4 scratch
// files created and closed, 7 seeks, 27 small + 18 mid reads, 7 small + 26
// mid + 1 large writes.
func (a *App) pscfSideWork(p *sim.Process, fs workload.FS, side []workload.Handle, pass int) error {
	var scratch []workload.Handle
	for i := 0; i < pscfPassScratch; i++ {
		s, err := fs.Create(p, 0, fmt.Sprintf("pscf.scratch%d.%d", pass, i), iotrace.ModeUnix)
		if err != nil {
			return err
		}
		scratch = append(scratch, s)
	}
	// Rewinds on the fresh scratch files and the writable side files: the
	// 7 near-zero-distance seeks per pass.
	for _, s := range scratch {
		if _, err := s.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
	}
	for _, s := range side[2:5] {
		if _, err := s.Seek(p, 0, pfs.SeekStart); err != nil {
			return err
		}
	}
	// Reread the densities: the streams continue from the previous pass.
	for i := 0; i < pscfPassSmallReads; i++ {
		if _, err := side[0].Read(p, pscfSmallBytes); err != nil {
			return err
		}
	}
	for i := 0; i < pscfPassMidReads; i++ {
		if _, err := side[1].Read(p, pscfMidReadBytes); err != nil {
			return err
		}
	}
	// New Fock/density data.
	for i := 0; i < pscfPassSmallWrites; i++ {
		if _, err := scratch[0].Write(p, pscfSmallBytes); err != nil {
			return err
		}
	}
	for i := 0; i < pscfPassMidWrites; i++ {
		if _, err := scratch[1+i%2].Write(p, pscfMidWriteBytes); err != nil {
			return err
		}
	}
	for i := 0; i < pscfPassLargeWrites; i++ {
		if _, err := scratch[3].Write(p, pscfLargeBytes); err != nil {
			return err
		}
	}
	for _, s := range scratch {
		if err := s.Close(p); err != nil {
			return err
		}
	}
	return nil
}

// Err reports failures recorded during the run.
func (a *App) Err() error { return a.errs.Err() }

// Package pfs models the Intel Paragon Parallel File System (PFS) as
// described in §3.2 of the paper: files striped in 64 KB units across the
// I/O nodes, a metadata server where opens, closes and size queries
// serialize, POSIX atomicity on M_UNIX files, and the six parallel access
// modes (M_UNIX, M_LOG, M_SYNC, M_RECORD, M_GLOBAL, M_ASYNC) with their real
// sharing semantics.
//
// The package is a *performance model*, not a data store: requests carry
// offsets and sizes but no payload, because the characterization study is
// about access patterns and costs. Every operation is charged its software
// cost on the calling compute node, contends for the metadata server or the
// file's atomicity token as the mode requires, and queues chunk-by-chunk at
// the I/O nodes its stripes live on.
package pfs

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/integrity"
	"repro/internal/ionode"
	"repro/internal/iotrace"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// FileSystem is one PFS instance bound to a simulated machine.
type FileSystem struct {
	eng *sim.Engine
	msh *mesh.Mesh
	cfg Config

	meta    *sim.Resource // metadata server: opens/closes/lsize serialize here
	ion     []*ionode.Node
	ionHome []int // compute-node id of each I/O node (for mesh distance)

	files  map[string]*File
	nextID iotrace.FileID

	rec      iotrace.Recorder // nil: the counters alone record
	phase    iotrace.Phase
	seq      int64
	coldOpen bool // first open of this instance already happened

	opCount [iotrace.NumOps]int64
	opBytes [iotrace.NumOps]int64
	opTime  [iotrace.NumOps]sim.Time

	fo FailoverStats

	rel    ReliabilityStats
	relRNG *sim.RNG // jitter stream; nil when the reliability layer is off
	hseq   int64    // heal process name sequence

	coll *collState // nil when collective I/O is disabled

	plc        *placer      // zone-interleaved replica ring
	rf         int          // effective replication factor (1 = no replication)
	readPolicy string       // how replicated reads pick a copy
	rep        *repairState // nil when the repair control plane is off

	// spareGroups holds WriteGather's per-I/O-node group arrays between
	// calls. Concurrent gathers each hold their own across the sleeps.
	spareGroups [][]gatherGroup
}

// FailoverStats counts the failover machinery's activity under injected
// I/O-node outages. All zeros on a healthy run.
type FailoverStats struct {
	Timeouts     int64    // requests that found their primary I/O node dead
	Retries      int64    // retry attempts issued
	Reroutes     int64    // chunks completed on a replica node
	MirrorWrites int64    // replica write chunks issued (replication factor > 1)
	Failed       int64    // chunks abandoned with ErrIONodeDown
	BackoffTime  sim.Time // total time spent in detection + backoff delays
}

// New creates a PFS instance on the given engine and mesh. The I/O nodes are
// placed at the highest mesh coordinates (as on the CCSF machine, where
// service and I/O nodes occupied dedicated columns).
func New(eng *sim.Engine, msh *mesh.Mesh, cfg Config) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fs := &FileSystem{
		eng:   eng,
		msh:   msh,
		cfg:   cfg,
		meta:  sim.NewResource(eng, "pfs-meta", 1),
		files: make(map[string]*File),
	}
	fs.cfg.Reliability = cfg.Reliability.Normalized()
	if fs.cfg.Reliability.Enabled {
		fs.relRNG = sim.NewRNG(relSeed)
	}
	fs.cfg.Replication = cfg.Replication.normalized(cfg.Failover, cfg.IONodes)
	fs.rf = fs.cfg.Replication.Factor
	fs.readPolicy = fs.cfg.Replication.ReadPolicy
	fs.plc = newPlacer(cfg.Zones(), fs.cfg.Replication.Seed)
	if fs.cfg.Replication.Repair.Enabled && fs.rf > 1 {
		fs.rep = newRepairState(fs.cfg.Replication.Repair)
	}
	total := msh.Nodes()
	for i := 0; i < cfg.IONodes; i++ {
		n := ionode.New(eng, i, cfg.nodeDisk(i))
		if cfg.Cache.Enabled {
			n.EnableCache(eng, cfg.nodeCache(i), cfg.StripeUnit)
		}
		if cfg.Integrity.Enabled {
			n.EnableIntegrity(cfg.Integrity.Normalized(), cfg.StripeUnit)
			n.StartScrubber(eng)
		}
		if cfg.Sched.Policy != "" {
			sc := cfg.Sched
			sc.Seed += uint64(i) * 0x9e3779b97f4a7c15 // per-node substream
			if err := n.EnableSched(sc); err != nil {
				return nil, err
			}
		}
		fs.ion = append(fs.ion, n)
		home := total - cfg.IONodes + i
		if home < 0 {
			home = i % total
		}
		fs.ionHome = append(fs.ionHome, home)
	}
	if cfg.Collective.Enabled {
		fs.cfg.Collective = cfg.Collective.Normalized(cfg.IONodes)
		fs.coll = newCollState(fs)
	}
	return fs, nil
}

// SchedStats returns every I/O node's scheduling-dispatcher counters, in node
// order; nil when the legacy FIFO queue is in use.
func (fs *FileSystem) SchedStats() []ionode.SchedStats {
	var out []ionode.SchedStats
	for _, n := range fs.ion {
		if s, ok := n.SchedStats(); ok {
			out = append(out, s)
		}
	}
	return out
}

// PhysRequests sums the physical request count over the I/O nodes — the
// array-level traffic after caching and collective aggregation have had
// their effect.
func (fs *FileSystem) PhysRequests() int64 {
	var total int64
	for _, n := range fs.ion {
		r, _ := n.Stats()
		total += r
	}
	return total
}

// Config returns the file-system configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// SetRecorder installs the trace recorder (e.g. a pablo.Tracer). Passing nil
// or iotrace.Discard disables recording; the per-op counters count on.
func (fs *FileSystem) SetRecorder(r iotrace.Recorder) {
	if r == iotrace.Discard {
		r = nil
	}
	fs.rec = r
}

// SetPhase labels subsequently captured events with an application phase;
// the analysis tools use it to separate the paper's per-phase figures.
func (fs *FileSystem) SetPhase(p iotrace.Phase) { fs.phase = p }

// Phase returns the current phase.
func (fs *FileSystem) Phase() iotrace.Phase { return fs.phase }

// IONodes exposes the I/O-node population (read-only use intended).
func (fs *FileSystem) IONodes() []*ionode.Node { return fs.ion }

// record captures one completed operation and accumulates summary counters.
func (fs *FileSystem) record(node int, op iotrace.Op, f *File, offset, bytes int64,
	start sim.Time, mode iotrace.AccessMode) {
	fs.recordPhase(node, op, f, offset, bytes, start, mode, fs.phase)
}

// recordPhase is record with an explicit phase, for operations that are
// not the application's own (the burst tier's drain writes carry their phase
// regardless of what the application is doing at drain time).
func (fs *FileSystem) recordPhase(node int, op iotrace.Op, f *File, offset, bytes int64,
	start sim.Time, mode iotrace.AccessMode, phase iotrace.Phase) {
	fs.seq++
	end := fs.eng.Now()
	if fs.rec != nil {
		var id iotrace.FileID
		if f != nil {
			id = f.id
		}
		fs.rec.Record(iotrace.Event{
			Seq: fs.seq, Node: int32(node), Op: op, File: id,
			Offset: offset, Bytes: bytes, Start: start, End: end,
			Mode: mode, Phase: phase,
		})
	}
	fs.opCount[op]++
	if op.Moves() {
		fs.opBytes[op] += bytes
	}
	fs.opTime[op] += end - start
}

// OpCount returns the number of operations of class op performed so far.
func (fs *FileSystem) OpCount(op iotrace.Op) int64 { return fs.opCount[op] }

// OpBytes returns the bytes moved by operations of class op.
func (fs *FileSystem) OpBytes(op iotrace.Op) int64 { return fs.opBytes[op] }

// OpTime returns the summed node time spent in operations of class op.
func (fs *FileSystem) OpTime(op iotrace.Op) sim.Time { return fs.opTime[op] }

// Create creates a new file and returns an open handle on it for the calling
// node. Creation is the expensive metadata operation on PFS.
func (fs *FileSystem) Create(p *sim.Process, node int, name string, mode iotrace.AccessMode) (*Handle, error) {
	start := p.Now()
	fs.chargeColdOpen(p)
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	fs.meta.Acquire(p)
	if _, exists := fs.files[name]; exists {
		fs.meta.Release(p)
		return nil, fmt.Errorf("create %q: %w", name, ErrExist)
	}
	p.Sleep(fs.cfg.Cost.CreateService)
	fs.nextID++
	f := newFile(fs, fs.nextID, name)
	fs.files[name] = f
	fs.meta.Release(p)
	if err := f.checkMode(mode); err != nil {
		return nil, fmt.Errorf("create %q: %w", name, err)
	}
	h := f.newHandle(node, mode)
	fs.record(node, iotrace.OpOpen, f, 0, 0, start, mode)
	return h, nil
}

// Open opens an existing file. All nodes of a parallel program open shared
// files with the same mode; conflicting shared-pointer modes are an error.
func (fs *FileSystem) Open(p *sim.Process, node int, name string, mode iotrace.AccessMode) (*Handle, error) {
	start := p.Now()
	fs.chargeColdOpen(p)
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	fs.meta.Acquire(p)
	f, exists := fs.files[name]
	if !exists {
		fs.meta.Release(p)
		return nil, fmt.Errorf("open %q: %w", name, ErrNotExist)
	}
	p.Sleep(fs.cfg.Cost.OpenService)
	fs.meta.Release(p)
	if err := f.checkMode(mode); err != nil {
		return nil, fmt.Errorf("open %q: %w", name, err)
	}
	h := f.newHandle(node, mode)
	fs.record(node, iotrace.OpOpen, f, 0, 0, start, mode)
	return h, nil
}

// OpenRecord opens an existing file in M_RECORD mode with the given fixed
// record length, which every subsequent access must match exactly.
func (fs *FileSystem) OpenRecord(p *sim.Process, node int, name string, recordLen int64) (*Handle, error) {
	if recordLen < 1 {
		return nil, fmt.Errorf("open %q: record length %d: %w", name, recordLen, ErrBadRequest)
	}
	h, err := fs.Open(p, node, name, iotrace.ModeRecord)
	if err != nil {
		return nil, err
	}
	if err := h.file.setRecordLen(recordLen); err != nil {
		return nil, fmt.Errorf("open %q: %w", name, err)
	}
	return h, nil
}

// FileInfo describes a file's identity and extent.
type FileInfo struct {
	ID   iotrace.FileID
	Name string
	Size int64
}

// Stat returns metadata for a file without charging simulation time (it is a
// bookkeeping query for tests and reports, not a modeled operation; modeled
// size queries go through Handle.Lsize).
func (fs *FileSystem) Stat(name string) (FileInfo, bool) {
	f, ok := fs.files[name]
	if !ok {
		return FileInfo{}, false
	}
	return FileInfo{ID: f.id, Name: f.name, Size: f.size}, true
}

// Files returns info for all files, in creation order.
func (fs *FileSystem) Files() []FileInfo {
	out := make([]FileInfo, 0, len(fs.files))
	for _, f := range fs.files {
		out = append(out, FileInfo{ID: f.id, Name: f.name, Size: f.size})
	}
	// creation order == id order
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (fs *FileSystem) chargeColdOpen(p *sim.Process) {
	if fs.coldOpen || fs.cfg.Cost.FirstOpenPenalty == 0 {
		fs.coldOpen = true
		return
	}
	fs.coldOpen = true
	p.Sleep(fs.cfg.Cost.FirstOpenPenalty)
}

// FailoverStats returns the accumulated failover counters.
func (fs *FileSystem) FailoverStats() FailoverStats { return fs.fo }

// ReliabilityStats returns the accumulated reliability-layer counters.
func (fs *FileSystem) ReliabilityStats() ReliabilityStats { return fs.rel }

// CacheStats returns every I/O node's cache counters, in node order; nil
// when caching is disabled.
func (fs *FileSystem) CacheStats() []cache.Stats {
	var out []cache.Stats
	for _, n := range fs.ion {
		if s, ok := n.CacheStats(); ok {
			out = append(out, s)
		}
	}
	return out
}

// drainCache synchronously flushes a file's write-behind residue on every
// I/O node, in node order. Down nodes are skipped: their dirty blocks were
// already disposed of by the outage policy.
func (fs *FileSystem) drainCache(p *sim.Process, f *File) {
	if !fs.cfg.Cache.Enabled {
		return
	}
	for _, n := range fs.ion {
		_ = n.Drain(p, int64(f.id))
	}
}

// transfer moves bytes between compute node `node` and the stripes of f in
// [off, off+n), charging mesh and I/O-node costs chunk by chunk. It is the
// physical data path shared by every mode. When a chunk's I/O node is down,
// the configured failover policy runs; with failover disabled or exhausted,
// the transfer stops with ErrIONodeDown.
func (fs *FileSystem) transfer(p *sim.Process, node int, f *File, off, n int64, read bool) error {
	su := fs.cfg.StripeUnit
	rel := fs.cfg.Reliability
	var dl sim.Time // absolute deadline for this whole request; 0 = none
	if rel.Enabled {
		fs.rel.Requests++
		if rel.Deadline > 0 {
			dl = p.Now() + rel.Deadline
		}
	}
	cur := off
	end := off + n
	for cur < end {
		stripe := cur / su
		chunkEnd := (stripe + 1) * su
		if chunkEnd > end {
			chunkEnd = end
		}
		chunk := chunkEnd - cur
		ion := f.stripeIONode(stripe, len(fs.ion))
		addr := f.arrayAddr(stripe, cur%su, len(fs.ion), su)
		if err := fs.chunkIO(p, node, f, ion, addr, chunk, read, dl); err != nil {
			return err
		}
		cur = chunkEnd
	}
	return nil
}

// tryNode issues one chunk to a specific I/O node, charging the mesh hop and
// the node's queueing + service time.
func (fs *FileSystem) tryNode(p *sim.Process, node, ion int, stream, addr, chunk int64, read bool) error {
	fs.msh.Transfer(p, node, fs.ionHome[ion], chunk)
	_, err := fs.ion[ion].Do(p, stream, addr, chunk, read)
	return err
}

// chunkIO services one stripe chunk with failover and the reliability
// layer's corrupt-read retries and deadlines. The healthy fast path
// (reliability off) is a single tryNode call, identical in cost to the
// pre-failover data path.
func (fs *FileSystem) chunkIO(p *sim.Process, node int, f *File, ion int, addr, chunk int64, read bool, dl sim.Time) error {
	rel := fs.cfg.Reliability
	fo := fs.cfg.Failover
	r0 := fs.readCopy(addr, read)
	err := fs.tryNode(p, node, fs.plc.target(ion, r0),
		replicaStream(int64(f.id), r0), replicaAddr(addr, r0), chunk, read)
	if err == nil {
		if !read && fs.rf > 1 {
			fs.mirrorWrite(p, node, f, ion, addr, chunk)
		}
		return nil
	}
	if errors.Is(err, integrity.ErrCorrupt) {
		// The node is healthy; its checksum verification rejected the data.
		// The dead-node detection timeout does not apply — go straight to
		// the corrupt-retry policy.
		if !rel.Enabled {
			fs.fo.Failed++
			return fmt.Errorf("pfs: %s chunk at ionode %d: %w", rw(read), ion, err)
		}
		return fs.corruptRetry(p, node, f, ion, r0, addr, chunk, dl)
	}
	if !fo.Enabled {
		fs.fo.Failed++
		return fmt.Errorf("pfs: %s chunk at ionode %d: %w", rw(read), ion, ErrIONodeDown)
	}

	// The node we tried is dead: charge the detection timeout, then retry
	// with exponential backoff — cycling through the chunk's other copies
	// when replicas exist, else against the primary in the hope the outage
	// ends first.
	fs.fo.Timeouts++
	fs.fo.BackoffTime += failoverDetectTimeout
	p.Sleep(failoverDetectTimeout)
	backoff := failoverBackoff
	for attempt := 0; attempt < failoverRetries; attempt++ {
		if rel.Enabled && dl > 0 && p.Now() >= dl {
			fs.rel.DeadlineExceeded++
			return fmt.Errorf("pfs: %s chunk at ionode %d: %w", rw(read), ion, ErrDeadline)
		}
		d := backoff
		if fs.relRNG != nil {
			d = fs.relRNG.Jitter(backoff, relJitter)
		}
		fs.fo.BackoffTime += d
		p.Sleep(d)
		backoff *= 2
		fs.fo.Retries++
		r := 0
		if fs.rf > 1 {
			r = (r0 + 1 + attempt%(fs.rf-1)) % fs.rf
		}
		target := fs.plc.target(ion, r)
		err := fs.tryNode(p, node, target,
			replicaStream(int64(f.id), r), replicaAddr(addr, r), chunk, read)
		if err == nil {
			if target != ion {
				fs.fo.Reroutes++
			}
			if !read && r != 0 {
				// A degraded (sloppy) write: the data landed on copy r while
				// the primary was unreachable. Every other copy is now stale;
				// the repair daemon will reconcile from r.
				fs.noteSloppyWrite(f, ion, r, addr, chunk)
			}
			return nil
		}
	}
	fs.fo.Failed++
	return fmt.Errorf("pfs: %s chunk at ionode %d: %w", rw(read), ion, ErrIONodeDown)
}

// readCopy picks the copy a healthy read starts at: always the primary,
// except under the any-replica policy, where the chunk address spreads reads
// round-robin over all copies. Writes always start at the primary.
func (fs *FileSystem) readCopy(addr int64, read bool) int {
	if !read || fs.rf < 2 || fs.readPolicy != ReadAnyReplica {
		return 0
	}
	return int((addr / fs.cfg.StripeUnit) % int64(fs.rf))
}

// corruptRetry is the reliability layer's response to a read rejected by
// checksum verification on copy badCopy: bounded retries with seeded
// exponential backoff + jitter, cycling over the chunk's other copies when
// replicas exist (re-reading the corrupt copy cannot succeed until something
// rewrites the block). A replica read that succeeds schedules a background
// heal write restoring the corrupt copy; under the quorum read policy it
// additionally reads further copies until a majority of the replication
// factor has verified.
func (fs *FileSystem) corruptRetry(p *sim.Process, node int, f *File, ion, badCopy int, addr, chunk int64, dl sim.Time) error {
	rel := fs.cfg.Reliability
	fo := fs.cfg.Failover
	fs.rel.CorruptRetries++
	backoff := relBackoff
	var lastErr error = integrity.ErrCorrupt
	for attempt := 0; attempt < rel.MaxRetries; attempt++ {
		if dl > 0 && p.Now() >= dl {
			fs.rel.DeadlineExceeded++
			return fmt.Errorf("pfs: read chunk at ionode %d: %w", ion, ErrDeadline)
		}
		d := fs.relRNG.Jitter(backoff, relJitter)
		fs.rel.RetryBackoffTime += d
		p.Sleep(d)
		backoff *= 2
		fs.rel.Retries++
		r := badCopy
		if fo.Enabled && fs.rf > 1 {
			r = (badCopy + 1 + attempt%(fs.rf-1)) % fs.rf
		}
		target := fs.plc.target(ion, r)
		err := fs.tryNode(p, node, target,
			replicaStream(int64(f.id), r), replicaAddr(addr, r), chunk, true)
		if err == nil {
			if r != badCopy {
				fs.rel.CorruptReroutes++
				fs.healCopy(node, f, ion, badCopy, addr, chunk)
				fs.quorumRead(p, node, f, ion, badCopy, r, addr, chunk)
			}
			return nil
		}
		lastErr = err
	}
	fs.rel.CorruptFailed++
	if errors.Is(lastErr, integrity.ErrCorrupt) {
		return fmt.Errorf("pfs: read chunk at ionode %d: %w", ion, integrity.ErrCorrupt)
	}
	return fmt.Errorf("pfs: read chunk at ionode %d: %w", ion, ErrIONodeDown)
}

// quorumRead implements the quorum read policy's answer to detected
// corruption: one verified copy (good) is not trusted on its own — further
// copies are read until a majority of the replication factor has verified or
// the copies run out. Extra reads that fail are tolerated; the already
// verified copy still answers.
func (fs *FileSystem) quorumRead(p *sim.Process, node int, f *File, ion, badCopy, good int, addr, chunk int64) {
	if fs.readPolicy != ReadQuorum || fs.rf < 3 {
		return // majority of rf <= 2 is one verified copy — already in hand
	}
	need := fs.rf/2 + 1
	have := 1
	for r := 0; r < fs.rf && have < need; r++ {
		if r == badCopy || r == good {
			continue
		}
		fs.rel.QuorumReads++
		if err := fs.tryNode(p, node, fs.plc.target(ion, r),
			replicaStream(int64(f.id), r), replicaAddr(addr, r), chunk, true); err == nil {
			have++
		}
	}
}

// healCopy spawns a background repair write of a chunk whose corrupt copy
// was recovered from another replica: the rewrite bumps the block version
// and restores a valid checksum, closing the corruption event.
func (fs *FileSystem) healCopy(node int, f *File, ion, badCopy int, addr, chunk int64) {
	target := fs.plc.target(ion, badCopy)
	fs.hseq++
	fs.eng.Spawn(fmt.Sprintf("pfs-heal%d-ion%d", fs.hseq, target), func(hp *sim.Process) {
		fs.msh.Transfer(hp, node, fs.ionHome[target], chunk)
		if err := fs.ion[target].BlockIO(hp, replicaStream(int64(f.id), badCopy),
			replicaAddr(addr, badCopy), chunk, false); err == nil {
			fs.rel.RepairWrites++
		}
	})
}

// mirrorWrite pushes a chunk's copies 1..rf-1 to their placement targets. A
// failed mirror is not fatal — the primary holds the data — but is counted,
// and with the repair control plane on, the missed copy enters the
// under-replication index for the daemon to restore.
func (fs *FileSystem) mirrorWrite(p *sim.Process, node int, f *File, ion int, addr, chunk int64) {
	for r := 1; r < fs.rf; r++ {
		target := fs.plc.target(ion, r)
		fs.fo.MirrorWrites++
		err := fs.tryNode(p, node, target, replicaStream(int64(f.id), r), replicaAddr(addr, r), chunk, false)
		if err != nil {
			fs.noteMirrorMiss(f, ion, r, addr, chunk)
		}
	}
}

func rw(read bool) string {
	if read {
		return "read"
	}
	return "write"
}

// syncIO charges a control round-trip (flush, lsize) at an I/O node, falling
// over to the neighbouring node after the detection timeout when the primary
// is down and failover is enabled.
func (fs *FileSystem) syncIO(p *sim.Process, ion int, cost sim.Time) error {
	if _, err := fs.ion[ion].Sync(p, cost); err == nil {
		return nil
	}
	fo := fs.cfg.Failover
	if !fo.Enabled || len(fs.ion) < 2 {
		fs.fo.Failed++
		return ErrIONodeDown
	}
	fs.fo.Timeouts++
	fs.fo.BackoffTime += failoverDetectTimeout
	p.Sleep(failoverDetectTimeout)
	fs.fo.Retries++
	if _, err := fs.ion[fs.plc.target(ion, 1)].Sync(p, cost); err != nil {
		fs.fo.Failed++
		return ErrIONodeDown
	}
	fs.fo.Reroutes++
	return nil
}

// DiskConfig is re-exported for callers needing the array model defaults.
type DiskConfig = disk.ArrayConfig

package ppfs

import (
	"fmt"
	"sort"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FileSystem is a PPFS instance: policy state layered over a native PFS.
type FileSystem struct {
	eng   *sim.Engine
	under *pfs.FileSystem
	pol   Policy

	directWrite int64 // writes at least this large bypass the buffer
	highWater   int64 // buffered bytes that start a background flush

	cache   *blockCache
	class   *Classifier
	buffers map[string]*fileBuffer

	rec   iotrace.Recorder
	phase iotrace.Phase

	// spareExt holds aggregated flushes' extent lists between flushes.
	// Concurrent flushers each hold their own across the gather's sleeps.
	spareExt [][]pfs.Extent

	stats Stats
}

// New layers a PPFS policy instance over a PFS.
func New(eng *sim.Engine, under *pfs.FileSystem, pol Policy) *FileSystem {
	stripe := under.Config().StripeUnit
	return &FileSystem{
		eng:         eng,
		under:       under,
		pol:         pol,
		directWrite: stripe,
		highWater:   4 * stripe,
		cache:       newBlockCache(cacheBlocks),
		class:       NewClassifier(),
		buffers:     make(map[string]*fileBuffer),
		rec:         iotrace.Discard,
	}
}

// Under exposes the physical file system (e.g. to attach a physical-level
// tracer).
func (fs *FileSystem) Under() *pfs.FileSystem { return fs.under }

// Stats returns policy-layer counters.
func (fs *FileSystem) Stats() Stats { return fs.stats }

// SetRecorder installs the application-level trace recorder.
func (fs *FileSystem) SetRecorder(r iotrace.Recorder) {
	if r == nil {
		r = iotrace.Discard
	}
	fs.rec = r
}

// SetPhase labels application-level and physical-level events.
func (fs *FileSystem) SetPhase(p iotrace.Phase) {
	fs.phase = p
	fs.under.SetPhase(p)
}

// Phase returns the current phase.
func (fs *FileSystem) Phase() iotrace.Phase { return fs.phase }

// Preload implements workload.FS.
func (fs *FileSystem) Preload(name string, size int64) (pfs.FileInfo, error) {
	return fs.under.Preload(name, size)
}

// ReserveIDs implements workload.FS.
func (fs *FileSystem) ReserveIDs(n int) { fs.under.ReserveIDs(n) }

// Stat implements workload.FS.
func (fs *FileSystem) Stat(name string) (pfs.FileInfo, bool) { return fs.under.Stat(name) }

// record captures one application-visible operation.
func (fs *FileSystem) record(node int, op iotrace.Op, file iotrace.FileID,
	off, bytes int64, start sim.Time, mode iotrace.AccessMode) {
	fs.rec.Record(iotrace.Event{
		Node: int32(node), Op: op, File: file,
		Offset: off, Bytes: bytes, Start: start, End: fs.eng.Now(),
		Mode: mode, Phase: fs.phase,
	})
}

// copyCost charges the client memory-copy time for n bytes.
func (fs *FileSystem) copyCost(p *sim.Process, n int64) {
	p.Sleep(sim.Time(float64(n) / copyBytesPerS * float64(sim.Second)))
}

// Create implements workload.FS.
func (fs *FileSystem) Create(p *sim.Process, node int, name string, mode iotrace.AccessMode) (workload.Handle, error) {
	start := p.Now()
	uh, err := fs.under.Create(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	h := fs.newHandle(p, uh, node, name, mode, start)
	return h, nil
}

// Open implements workload.FS.
func (fs *FileSystem) Open(p *sim.Process, node int, name string, mode iotrace.AccessMode) (workload.Handle, error) {
	start := p.Now()
	uh, err := fs.under.Open(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	return fs.newHandle(p, uh, node, name, mode, start), nil
}

// OpenRecord implements workload.FS.
func (fs *FileSystem) OpenRecord(p *sim.Process, node int, name string, recordLen int64) (workload.Handle, error) {
	start := p.Now()
	uh, err := fs.under.OpenRecord(p, node, name, recordLen)
	if err != nil {
		return nil, err
	}
	return fs.newHandle(p, uh, node, name, iotrace.ModeRecord, start), nil
}

func (fs *FileSystem) newHandle(p *sim.Process, uh *pfs.Handle, node int, name string,
	mode iotrace.AccessMode, start sim.Time) *Handle {
	fb := fs.buffer(name)
	fb.openHandles++
	info, _ := fs.under.Stat(name)
	fs.record(node, iotrace.OpOpen, info.ID, 0, 0, start, mode)
	return &Handle{fs: fs, under: uh, node: node, name: name, file: info.ID, mode: mode}
}

// fileBuffer is the write-behind state for one file.
type fileBuffer struct {
	name        string
	extents     []extent
	bytes       int64
	flushing    bool
	timerArmed  bool
	openHandles int
	waiters     []*sim.Process
}

// extent is one buffered write range [start, end), attributed to the node
// that produced it (physical flushes charge that node's mesh path).
type extent struct {
	start, end int64
	node       int
}

func (fs *FileSystem) buffer(name string) *fileBuffer {
	fb := fs.buffers[name]
	if fb == nil {
		fb = &fileBuffer{name: name}
		fs.buffers[name] = fb
	}
	return fb
}

// addExtent buffers a write, coalescing overlapping or adjacent extents into
// one.
func (fs *FileSystem) addExtent(fb *fileBuffer, off, n int64, node int) {
	e := extent{start: off, end: off + n, node: node}
	// Count only the bytes the write newly covers: a flush takes off its
	// merged extents' lengths, so an overlap counted twice would keep
	// fb.bytes above zero forever. The extents are disjoint, so their
	// overlaps with e are the part it already covers.
	added := n
	for _, cur := range fb.extents {
		added -= max(0, min(cur.end, e.end)-max(cur.start, e.start))
	}
	fb.bytes += added
	// Insert sorted, then merge neighbors.
	i := sort.Search(len(fb.extents), func(i int) bool { return fb.extents[i].start >= e.start })
	fb.extents = append(fb.extents, extent{})
	copy(fb.extents[i+1:], fb.extents[i:])
	fb.extents[i] = e
	merged := fb.extents[:0]
	for _, cur := range fb.extents {
		if n := len(merged); n > 0 && cur.start <= merged[n-1].end {
			if cur.end > merged[n-1].end {
				merged[n-1].end = cur.end
			}
			continue
		}
		merged = append(merged, cur)
	}
	fb.extents = merged
}

// scheduleFlush starts a background flusher or arms the linger timer.
func (fs *FileSystem) scheduleFlush(fb *fileBuffer) {
	if fb.bytes >= fs.highWater {
		if !fb.flushing {
			fb.flushing = true
			fs.eng.Spawn("ppfs-flush:"+fb.name, func(p *sim.Process) { fs.runFlush(p, fb) })
		}
		return
	}
	if !fb.timerArmed {
		fb.timerArmed = true
		fs.eng.SpawnAt("ppfs-timer:"+fb.name, flushInterval, func(p *sim.Process) {
			fb.timerArmed = false
			if fb.bytes > 0 && !fb.flushing {
				fb.flushing = true
				fs.runFlush(p, fb)
			}
		})
	}
}

// runFlush pushes every buffered extent of fb to the file system, then wakes
// drain waiters. It runs with fb.flushing held. Each pending batch goes out
// as scatter-gather sweeps (one per I/O node) — the global request
// aggregation of §5.2.
func (fs *FileSystem) runFlush(p *sim.Process, fb *fileBuffer) {
	for len(fb.extents) > 0 {
		gext := fs.takeExtents()
		var n int64
		var node int
		for _, e := range fb.extents {
			gext = append(gext, pfs.Extent{Start: e.start, End: e.end})
			n += e.end - e.start
			node = e.node
		}
		// The batch is copied out, so writes that arrive while it is in
		// flight start a new batch in its array.
		fb.extents = fb.extents[:0]
		// fb.bytes stays up until the physical writes land, so drain
		// waiters cannot observe a flush-in-flight as "done".
		written, sweeps, err := fs.under.WriteGather(p, node, fb.name, gext)
		fs.spareExt = append(fs.spareExt, gext[:0])
		if err != nil {
			panic(fmt.Sprintf("ppfs: aggregated flush of %q failed: %v", fb.name, err))
		}
		fb.bytes -= n
		fs.stats.Flushes += int64(sweeps)
		fs.stats.FlushedBytes += written
	}
	fb.flushing = false
	// Waking only schedules, so no waiter can join while the list is walked,
	// and the buffer keeps its array for the next drain.
	for _, w := range fb.waiters {
		p.Wake(w)
	}
	clear(fb.waiters)
	fb.waiters = fb.waiters[:0]
}

// takeExtents returns an empty extent list for an aggregated flush, reusing
// a spare one.
func (fs *FileSystem) takeExtents() []pfs.Extent {
	k := len(fs.spareExt)
	if k == 0 {
		return nil
	}
	l := fs.spareExt[k-1]
	fs.spareExt = fs.spareExt[:k-1]
	return l
}

// drain synchronously empties fb's buffer (reads, closes, lsize, and direct
// writes that would conflict call it).
func (fs *FileSystem) drain(p *sim.Process, fb *fileBuffer) {
	if fb.bytes == 0 && !fb.flushing {
		return
	}
	fs.stats.Drains++
	for fb.bytes > 0 || fb.flushing {
		if !fb.flushing {
			fb.flushing = true
			fs.eng.Spawn("ppfs-drain:"+fb.name, func(fp *sim.Process) { fs.runFlush(fp, fb) })
		}
		fb.waiters = append(fb.waiters, p)
		p.Park("ppfs-drain", fb.name)
	}
}

// Interface check.
var _ workload.FS = (*FileSystem)(nil)

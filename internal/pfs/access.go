package pfs

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Access performs a raw, handle-less transfer against a file: no file
// pointer, no mode semantics, no atomicity token. It is the physical entry
// point for client-side policy layers — PPFS's write-behind flushers and
// prefetch daemons — which do their own scheduling and aggregation. The
// operation is charged the client overhead plus the physical transfer, and
// is captured in this (physical-level) file system's trace.
//
// op must be OpRead or OpWrite. Reads are clamped at end of file (returning
// ErrEOF at or past it); writes extend the file.
func (fs *FileSystem) Access(p *sim.Process, node int, name string, op iotrace.Op, off, n int64) (int64, error) {
	if op != iotrace.OpRead && op != iotrace.OpWrite {
		return 0, fmt.Errorf("pfs: Access with op %v: %w", op, ErrBadRequest)
	}
	if off < 0 || n < 0 {
		return 0, fmt.Errorf("pfs: Access at %d for %d: %w", off, n, ErrBadRequest)
	}
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("access %q: %w", name, ErrNotExist)
	}
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	if op == iotrace.OpRead {
		if off >= f.size {
			return 0, ErrEOF
		}
		if off+n > f.size {
			n = f.size - off
		}
	}
	if n > 0 {
		if err := fs.transfer(p, node, f, off, n, op == iotrace.OpRead); err != nil {
			return 0, err
		}
		if op == iotrace.OpWrite {
			f.extend(off + n)
		}
	}
	fs.record(node, op, f, off, n, start, iotrace.ModeAsync)
	return n, nil
}

// PhaseBurstDrain labels trace events issued by the burst tier's drain
// daemons, so analyses (and the run's wall-clock accounting) can separate
// background drain traffic from the application's own.
const PhaseBurstDrain = iotrace.PhaseBurstDrain

// DrainWrite is the burst tier's drain entry point: it transfers wire bytes
// (the post-compression volume) through the normal chunk path at [off,
// off+wire) but extends the file to off+logical, since compression shrinks
// the physical transfer, not the logical image. The event is recorded under
// PhaseBurstDrain with the logical size. Failover, caching, and integrity
// tracking all apply — the drain is a regular client of the storage stack.
func (fs *FileSystem) DrainWrite(p *sim.Process, node int, name string, off, logical, wire int64) error {
	if off < 0 || logical < 0 || wire < 0 || wire > logical {
		return fmt.Errorf("pfs: drain write at %d for %d/%d: %w", off, logical, wire, ErrBadRequest)
	}
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("drain write %q: %w", name, ErrNotExist)
	}
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	if wire > 0 {
		if err := fs.transfer(p, node, f, off, wire, false); err != nil {
			return err
		}
	}
	f.extend(off + logical)
	fs.recordPhase(node, iotrace.OpWrite, f, off, logical, start, iotrace.ModeAsync, PhaseBurstDrain)
	return nil
}

// RecordClientOp captures an operation a client-side layer completed without
// touching the PFS (a burst-tier commit): the application saw it, so the
// trace must too. No simulation time is charged; the caller already modeled
// the cost.
func (fs *FileSystem) RecordClientOp(node int, op iotrace.Op, name string, off, bytes int64,
	start sim.Time, mode iotrace.AccessMode) {
	fs.record(node, op, fs.files[name], off, bytes, start, mode)
}

// MetaVisit charges one visit to the metadata server with the given service
// time and records it as an operation of class op (with no file context).
// Trace-replay engines use it to reproduce open/close/metadata contention on
// alternative configurations without handle bookkeeping.
func (fs *FileSystem) MetaVisit(p *sim.Process, node int, op iotrace.Op, service sim.Time) {
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	fs.meta.Acquire(p)
	p.Sleep(service)
	fs.meta.Release(p)
	fs.record(node, op, nil, 0, 0, start, iotrace.ModeNone)
}

// Extent is a [Start, End) byte range within a file.
type Extent struct {
	Start, End int64
}

// WriteGather writes a batch of disjoint extents in one aggregated
// operation: the extents' stripe chunks are grouped by I/O node and each
// group is serviced as a single sorted scatter-gather sweep. This is the
// physical mechanism behind PPFS's global request aggregation (§5.2/§8):
// many small disjoint writes become one efficient arm pass per array.
//
// It returns the bytes written and the number of physical sweeps issued (one
// per I/O node touched). One write event per sweep is recorded, so physical
// traces show the aggregated requests.
func (fs *FileSystem) WriteGather(p *sim.Process, node int, name string, extents []Extent) (int64, int, error) {
	f, ok := fs.files[name]
	if !ok {
		return 0, 0, fmt.Errorf("write-gather %q: %w", name, ErrNotExist)
	}
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)

	// Split extents into stripe chunks and group them per I/O node.
	groups := fs.takeGroups()
	defer fs.putGroups(groups)
	su := fs.cfg.StripeUnit
	var total, maxEnd int64
	for _, e := range extents {
		if e.Start < 0 || e.End < e.Start {
			return 0, 0, fmt.Errorf("write-gather %q: extent %+v: %w", name, e, ErrBadRequest)
		}
		if e.End > maxEnd {
			maxEnd = e.End
		}
		cur := e.Start
		for cur < e.End {
			stripe := cur / su
			chunkEnd := (stripe + 1) * su
			if chunkEnd > e.End {
				chunkEnd = e.End
			}
			ion := f.stripeIONode(stripe, len(fs.ion))
			g := &groups[ion]
			if g.requests == 0 {
				g.firstOff = cur
				g.addr = f.arrayAddr(stripe, cur%su, len(fs.ion), su)
			}
			g.bytes += chunkEnd - cur
			g.requests++
			total += chunkEnd - cur
			cur = chunkEnd
		}
	}

	sweeps := 0
	for ion, g := range groups {
		if g.requests == 0 {
			continue
		}
		sweeps++
		fs.msh.Transfer(p, node, fs.ionHome[ion], g.bytes)
		if _, err := fs.ion[ion].DoSweep(p, replicaStream(int64(f.id), 0), g.addr, g.bytes, g.requests); err != nil {
			return total, sweeps, fmt.Errorf("write-gather %q at ionode %d: %w", name, ion, ErrIONodeDown)
		}
		fs.record(node, iotrace.OpWrite, f, g.firstOff, g.bytes, start, iotrace.ModeAsync)
		start = p.Now()
	}
	f.extend(maxEnd)
	return total, sweeps, nil
}

// gatherGroup is the part of a WriteGather that goes to one I/O node.
type gatherGroup struct {
	bytes    int64
	requests int
	firstOff int64 // file offset of the group's first chunk
	addr     int64 // array address of the group's first chunk
}

// takeGroups returns a zeroed group per I/O node, reusing a spare array.
func (fs *FileSystem) takeGroups() []gatherGroup {
	k := len(fs.spareGroups)
	if k == 0 {
		return make([]gatherGroup, len(fs.ion))
	}
	g := fs.spareGroups[k-1]
	fs.spareGroups = fs.spareGroups[:k-1]
	clear(g)
	return g
}

// putGroups keeps a finished WriteGather's group array for the next one.
func (fs *FileSystem) putGroups(g []gatherGroup) { fs.spareGroups = append(fs.spareGroups, g) }

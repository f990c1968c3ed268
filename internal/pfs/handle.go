package pfs

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Handle is one node's open descriptor on a file. Independent-pointer modes
// (M_UNIX, M_RECORD, M_ASYNC) keep their position here; shared-pointer modes
// keep it on the File.
//
// The struct is 64 bytes, and TestHandleLayout fails above that: the narrow
// fields come last so they share one padded word.
type Handle struct {
	fs   *FileSystem
	file *File

	offset int64 // independent file pointer
	// round counts this handle's accesses in its mode, for the modes that
	// order them by round: M_RECORD (records accessed), M_SYNC and M_GLOBAL
	// (rounds joined). One counter serves all three because a handle has
	// one mode at a time; SetIOMode to another mode restarts it.
	round int64

	// client write buffer (CostModel.WriteBufferBytes > 0, M_UNIX only)
	bufStart int64
	bufLen   int64

	node   int
	mode   iotrace.AccessMode
	closed bool
}

// buffered reports whether this handle coalesces small sequential writes.
func (h *Handle) buffered() bool {
	return h.fs.cfg.Cost.WriteBufferBytes > 0 && h.mode == iotrace.ModeUnix
}

// drainWriteBuffer pushes any buffered bytes to the I/O nodes, charging the
// caller the physical transfer under the file's atomicity token.
func (h *Handle) drainWriteBuffer(p *sim.Process) error {
	if h.bufLen == 0 {
		return nil
	}
	f := h.file
	start, n := h.bufStart, h.bufLen
	h.bufStart, h.bufLen = 0, 0
	f.token.Acquire(p)
	err := h.fs.transfer(p, h.node, f, start, n, false)
	f.token.Release(p)
	return err
}

// bufferedWrite appends a small sequential write to the client buffer,
// performing a physical transfer for each full buffer. It returns false if
// the write cannot be buffered (non-sequential or too large), in which case
// the caller drains and falls back to the direct path. A non-nil error means
// a full buffer's physical transfer failed.
func (h *Handle) bufferedWrite(p *sim.Process, n int64) (bool, error) {
	limit := h.fs.cfg.Cost.WriteBufferBytes
	if n >= limit {
		return false, nil
	}
	if h.bufLen > 0 && h.offset != h.bufStart+h.bufLen {
		return false, nil
	}
	if h.bufLen == 0 {
		h.bufStart = h.offset
	}
	h.bufLen += n
	h.offset += n
	h.file.extend(h.offset)
	for h.bufLen >= limit {
		f := h.file
		f.token.Acquire(p)
		err := h.fs.transfer(p, h.node, f, h.bufStart, limit, false)
		f.token.Release(p)
		if err != nil {
			return true, err
		}
		h.bufStart += limit
		h.bufLen -= limit
	}
	return true, nil
}

// Mode returns the access mode the handle was opened with.
func (h *Handle) Mode() iotrace.AccessMode { return h.mode }

// Offset returns the handle's independent file pointer (meaningful for
// M_UNIX, M_RECORD and M_ASYNC handles).
func (h *Handle) Offset() int64 { return h.offset }

func (h *Handle) check(n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrBadRequest
	}
	return nil
}

// Read transfers n bytes from the file at the position implied by the
// handle's mode. It returns the bytes actually read, which is short (or zero
// with ErrEOF) at end of file for the independent- and shared-pointer modes.
func (h *Handle) Read(p *sim.Process, n int64) (int64, error) {
	return h.access(p, iotrace.OpRead, n)
}

// Write transfers n bytes to the file at the position implied by the
// handle's mode, extending the file as needed.
func (h *Handle) Write(p *sim.Process, n int64) (int64, error) {
	return h.access(p, iotrace.OpWrite, n)
}

// access implements the synchronous data path for every mode.
func (h *Handle) access(p *sim.Process, op iotrace.Op, n int64) (int64, error) {
	if err := h.check(n); err != nil {
		return 0, err
	}
	fs, f := h.fs, h.file
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)

	var done, at int64
	var err error
	switch h.mode {
	case iotrace.ModeUnix, iotrace.ModeNone:
		// Independent pointer; POSIX atomicity via the file token.
		at = h.offset
		if h.buffered() && op == iotrace.OpWrite {
			if ok, berr := h.bufferedWrite(p, n); ok {
				done, err = n, berr
				break
			}
		}
		if err := h.drainWriteBuffer(p); err != nil {
			return 0, err
		}
		at = h.offset
		f.token.Acquire(p)
		done, err = h.doAt(p, op, at, n)
		h.offset += done
		f.token.Release(p)

	case iotrace.ModeAsync:
		// Independent pointer, no atomicity: transfers overlap freely.
		at = h.offset
		done, err = h.doAt(p, op, at, n)
		h.offset += done

	case iotrace.ModeLog:
		// Shared pointer, FCFS, variable length: the token orders and
		// serializes accesses and carries the pointer.
		p.Sleep(fs.cfg.Cost.SharedTokenService)
		f.token.Acquire(p)
		at = f.sharedOff
		done, err = h.doAt(p, op, at, n)
		f.sharedOff += done
		f.token.Release(p)

	case iotrace.ModeSync:
		// Shared pointer, node-number order: node k of round r holds turn
		// r*N + k. N is the mesh's compute-node population. With collective
		// I/O the round's requests meet at a barrier instead and the flusher
		// assigns offsets in node order — the same discipline, one
		// aggregated transfer.
		p.Sleep(fs.cfg.Cost.SharedTokenService)
		round := h.round
		h.round++
		if fs.coll != nil && (op == iotrace.OpRead || op == iotrace.OpWrite) {
			done, at, err = fs.coll.syncAccess(p, h, op, round, n)
			break
		}
		f.seq.WaitTurn(p, int(round)*h.computeNodes()+h.node)
		at = f.sharedOff
		done, err = h.doAt(p, op, at, n)
		f.sharedOff += done
		f.seq.Done(p)

	case iotrace.ModeRecord:
		// Independent pointers over fixed-length records, interleaved
		// node-major: node k's j-th record is record j*N + k.
		if f.recordLen == 0 {
			if err := f.setRecordLen(n); err != nil {
				return 0, err
			}
		}
		if n != f.recordLen {
			return 0, fmt.Errorf("%s %q: got %d, record length %d: %w",
				op, f.name, n, f.recordLen, ErrRecordLength)
		}
		round := h.round
		h.round++
		at = (round*int64(h.computeNodes()) + int64(h.node)) * f.recordLen
		if fs.coll != nil && (op == iotrace.OpRead || op == iotrace.OpWrite) {
			done, err = fs.coll.recordAccess(p, h, op, round, at, n)
			h.offset = at + done
			break
		}
		done, err = h.doAt(p, op, at, n)
		h.offset = at + done

	case iotrace.ModeGlobal:
		// All nodes access the same data: one physical transfer per round,
		// the rest receive the result over the interconnect.
		done, at, err = h.globalAccess(p, op, n)

	default:
		return 0, fmt.Errorf("pfs: unsupported mode %v", h.mode)
	}

	fs.record(h.node, op, f, at, done, start, h.mode)
	return done, err
}

// computeNodes returns the compute-partition size N used by the interleaved
// modes: the configured partition, or (when unconfigured) the mesh positions
// not occupied by I/O nodes.
func (h *Handle) computeNodes() int {
	if n := h.fs.cfg.ComputeNodes; n > 0 {
		return n
	}
	n := h.fs.msh.Nodes() - len(h.fs.ion)
	if n < 1 {
		n = h.fs.msh.Nodes()
	}
	return n
}

// doAt performs a transfer at an explicit offset, clamping reads at EOF and
// extending the file on writes. The caller holds whatever synchronization
// the mode requires.
func (h *Handle) doAt(p *sim.Process, op iotrace.Op, off, n int64) (int64, error) {
	f := h.file
	if op == iotrace.OpRead || op == iotrace.OpAsyncRead {
		if off >= f.size {
			return 0, ErrEOF
		}
		if off+n > f.size {
			n = f.size - off
		}
	}
	if n == 0 {
		return 0, nil
	}
	if err := h.fs.transfer(p, h.node, f, off, n, op != iotrace.OpWrite); err != nil {
		return 0, err
	}
	if op == iotrace.OpWrite {
		f.extend(off + n)
	}
	cost := h.fs.cfg.Cost
	if op == iotrace.OpRead && cost.ReadCopyBytesPerS > 0 && n >= cost.ReadCopyMin {
		p.Sleep(sim.Time(float64(n) / cost.ReadCopyBytesPerS * float64(sim.Second)))
	}
	return n, nil
}

func (h *Handle) globalAccess(p *sim.Process, op iotrace.Op, n int64) (int64, int64, error) {
	fs, f := h.fs, h.file
	p.Sleep(fs.cfg.Cost.SharedTokenService)
	round := h.round
	h.round++
	g := f.global[round]
	if g == nil {
		// Leader: perform the physical transfer and publish the round.
		g = &globalRound{comp: sim.NewCompletion(fmt.Sprintf("%s.g%d", f.name, round))}
		f.global[round] = g
		at := f.sharedOff
		done, err := h.doAt(p, op, at, n)
		g.bytes, g.off = done, at
		f.sharedOff += done
		g.comp.Complete(p)
		return done, at, err
	}
	g.comp.Await(p)
	// Non-leaders receive the data over the mesh from the leader's node.
	fs.msh.Transfer(p, h.node, h.node, g.bytes)
	return g.bytes, g.off, nil
}

// Seek repositions the handle's pointer. On M_UNIX shared files this is a
// synchronous, serializing operation (the behaviour behind ESCAT's dominant
// seek cost); on private files it contends with nobody and is cheap. The
// returned offset is the new position; the traced "bytes" of a seek is the
// distance moved, matching the seek-volume column of Table 5.
func (h *Handle) Seek(p *sim.Process, offset int64, whence int) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	fs, f := h.fs, h.file
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)

	base := int64(0)
	switch whence {
	case SeekStart:
	case SeekCurrent:
		base = h.offset
	case SeekEnd:
		base = f.size
	default:
		return 0, fmt.Errorf("whence %d: %w", whence, ErrBadSeek)
	}
	target := base + offset
	if target < 0 {
		return 0, fmt.Errorf("offset %d: %w", target, ErrBadSeek)
	}
	if err := h.drainWriteBuffer(p); err != nil {
		return 0, err
	}

	f.token.Acquire(p)
	p.Sleep(fs.cfg.Cost.SeekService)
	f.token.Release(p)

	dist := target - h.offset
	if dist < 0 {
		dist = -dist
	}
	h.offset = target
	fs.record(h.node, iotrace.OpSeek, f, target, dist, start, h.mode)
	return target, nil
}

// Close releases the handle. Closes serialize at the metadata server.
func (h *Handle) Close(p *sim.Process) error {
	if h.closed {
		return ErrClosed
	}
	fs, f := h.fs, h.file
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	if err := h.drainWriteBuffer(p); err != nil {
		return err
	}
	fs.meta.Acquire(p)
	p.Sleep(fs.cfg.Cost.CloseService)
	fs.meta.Release(p)
	h.closed = true
	f.openHandles--
	if f.openHandles == 0 {
		f.sharedMode = iotrace.ModeNone
	}
	fs.record(h.node, iotrace.OpClose, f, 0, 0, start, h.mode)
	return nil
}

// Lsize queries the file's size (the Fortran LSIZE call of Table 5). The
// query resolves at the I/O node holding the file's first stripe, not at the
// metadata server, so it does not queue behind open/create storms.
func (h *Handle) Lsize(p *sim.Process) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	fs, f := h.fs, h.file
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	ion := f.stripeIONode(0, len(fs.ion))
	if err := fs.syncIO(p, ion, fs.cfg.Cost.LsizeService); err != nil {
		return 0, fmt.Errorf("lsize %q: %w", f.name, err)
	}
	fs.record(h.node, iotrace.OpLsize, f, 0, 0, start, h.mode)
	return f.size, nil
}

// Flush forces buffered data to the I/O node holding the handle's current
// stripe (the Fortran FORFLUSH call of Table 5). With I/O-node caching it
// additionally drains the file's write-behind residue on every node, so
// data is on disk when Flush returns.
func (h *Handle) Flush(p *sim.Process) error {
	if h.closed {
		return ErrClosed
	}
	fs, f := h.fs, h.file
	start := p.Now()
	p.Sleep(fs.cfg.Cost.ClientOverhead)
	if err := h.drainWriteBuffer(p); err != nil {
		return err
	}
	fs.drainCache(p, f)
	stripe := h.offset / fs.cfg.StripeUnit
	ion := f.stripeIONode(stripe, len(fs.ion))
	if err := fs.syncIO(p, ion, fs.cfg.Cost.FlushService); err != nil {
		return fmt.Errorf("flush %q: %w", f.name, err)
	}
	fs.record(h.node, iotrace.OpFlush, f, h.offset, 0, start, h.mode)
	return nil
}

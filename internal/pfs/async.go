package pfs

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// AsyncRead is an in-flight asynchronous read. The issuing call returns
// after the (small) issue cost; the transfer proceeds on a background
// process, and Wait charges the caller only the un-overlapped remainder —
// which the paper's instrumentation reports as "I/O Wait" time (Table 3).
type AsyncRead struct {
	h      *Handle
	comp   *sim.Completion
	bytes  int64
	err    error
	offset int64
	waited bool
}

// ReadAsync issues an asynchronous read of n bytes at the handle's current
// (independent) file pointer and advances the pointer immediately, so a
// caller can pipeline several reads — RENDER's explicit prefetch of its
// terrain files (§6.2). Only independent-pointer modes support async reads.
func (h *Handle) ReadAsync(p *sim.Process, n int64) (*AsyncRead, error) {
	if err := h.check(n); err != nil {
		return nil, err
	}
	switch h.mode {
	case iotrace.ModeUnix, iotrace.ModeAsync, iotrace.ModeNone:
	default:
		return nil, fmt.Errorf("pfs: ReadAsync on %v handle", h.mode)
	}
	fs, f := h.fs, h.file
	start := p.Now()
	if err := h.drainWriteBuffer(p); err != nil {
		return nil, err
	}
	p.Sleep(fs.cfg.Cost.AsyncIssue)

	off := h.offset
	// Clamp at EOF now, like the synchronous path.
	if off >= f.size {
		fs.record(h.node, iotrace.OpAsyncRead, f, off, 0, start, h.mode)
		return &AsyncRead{h: h, comp: preCompleted(p), err: ErrEOF, offset: off}, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	h.offset = off + n

	ar := &AsyncRead{h: h, comp: sim.NewCompletion(fmt.Sprintf("%s.aread@%d", f.name, off)), bytes: n, offset: off}
	fs.eng.Spawn(fmt.Sprintf("aread:%s@%d", f.name, off), func(bg *sim.Process) {
		if h.mode == iotrace.ModeUnix {
			f.token.Acquire(bg)
			ar.err = fs.transfer(bg, h.node, f, off, n, true)
			f.token.Release(bg)
		} else {
			ar.err = fs.transfer(bg, h.node, f, off, n, true)
		}
		if ar.err != nil {
			ar.bytes = 0
		}
		ar.comp.Complete(bg)
	})
	fs.record(h.node, iotrace.OpAsyncRead, f, off, n, start, h.mode)
	return ar, nil
}

func preCompleted(p *sim.Process) *sim.Completion {
	c := sim.NewCompletion("eof")
	c.Complete(p)
	return c
}

// Wait blocks until the read's data has arrived and returns the bytes read.
// The blocked time is captured as an I/O-wait event; a Wait on an already
// complete read costs (and records) zero wait, mirroring fully-overlapped
// prefetches.
func (ar *AsyncRead) Wait(p *sim.Process) (int64, error) {
	if ar.waited {
		return ar.bytes, ar.err
	}
	ar.waited = true
	fs, f := ar.h.fs, ar.h.file
	start := p.Now()
	ar.comp.Await(p)
	fs.record(ar.h.node, iotrace.OpIOWait, f, ar.offset, 0, start, ar.h.mode)
	return ar.bytes, ar.err
}

package pfs

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Preload installs a file with the given extent without charging simulated
// time or emitting trace events. It models data sets that exist before the
// traced run begins — ESCAT's problem-definition files, RENDER's terrain
// data, HTF's initial inputs.
func (fs *FileSystem) Preload(name string, size int64) (FileInfo, error) {
	if size < 0 {
		return FileInfo{}, fmt.Errorf("preload %q: size %d: %w", name, size, ErrBadRequest)
	}
	if _, exists := fs.files[name]; exists {
		return FileInfo{}, fmt.Errorf("preload %q: %w", name, ErrExist)
	}
	fs.nextID++
	f := newFile(fs, fs.nextID, name)
	f.size = size
	fs.files[name] = f
	return FileInfo{ID: f.id, Name: name, Size: size}, nil
}

// ReserveIDs skips the next n file identifiers. Runs use it to align trace
// file ids with conventional descriptor numbering (ids 0-2 belong to the
// standard streams in the paper's figures, so its first data file is id 3).
func (fs *FileSystem) ReserveIDs(n int) {
	if n < 0 {
		panic("pfs: ReserveIDs with negative n")
	}
	fs.nextID += iotrace.FileID(n)
}

// SetIOMode switches the handle's access mode in place, modeling Intel PFS's
// setiomode(): ESCAT writes its quadrature files in M_UNIX and rereads them
// in M_RECORD through the same descriptors (§5.1), which is why the paper
// counts 262 opens rather than 518. For M_RECORD the fixed record length
// must be supplied (and must agree with any length already fixed on the
// file); for other modes recordLen must be zero. A switch to a different
// mode restarts the handle's round count, so its first access in the new
// mode is its round 0 there.
func (h *Handle) SetIOMode(p *sim.Process, mode iotrace.AccessMode, recordLen int64) error {
	if h.closed {
		return ErrClosed
	}
	if !mode.Valid() || mode == iotrace.ModeNone {
		return fmt.Errorf("pfs: SetIOMode to %v", mode)
	}
	if (mode == iotrace.ModeRecord) != (recordLen > 0) {
		return fmt.Errorf("pfs: SetIOMode record length %d for mode %v: %w",
			recordLen, mode, ErrBadRequest)
	}
	if err := h.drainWriteBuffer(p); err != nil {
		return err
	}
	if err := h.file.checkMode(mode); err != nil {
		return err
	}
	if mode == iotrace.ModeRecord {
		if err := h.file.setRecordLen(recordLen); err != nil {
			return err
		}
	}
	// Mode switches synchronize with the I/O subsystem like other
	// shared-state changes, but are not an instrumented operation class.
	p.Sleep(h.fs.cfg.Cost.SharedTokenService)
	if mode != h.mode {
		h.mode, h.round = mode, 0
	}
	return nil
}

// Package workload defines the application-facing abstractions of the
// reproduction: the FS interface the application skeletons program against
// (implemented both by raw PFS and by the PPFS policy layer, so the §5.2
// policy ablation runs the identical application code on both), the Machine
// bundle describing one simulated Paragon, and the App registry.
package workload

import (
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// FS is the parallel file system surface used by applications.
type FS interface {
	// Create makes a new file and returns node's open handle on it.
	Create(p *sim.Process, node int, name string, mode iotrace.AccessMode) (Handle, error)
	// Open opens an existing file.
	Open(p *sim.Process, node int, name string, mode iotrace.AccessMode) (Handle, error)
	// OpenRecord opens an existing file in M_RECORD mode with a fixed
	// record length.
	OpenRecord(p *sim.Process, node int, name string, recordLen int64) (Handle, error)
	// Preload installs a pre-existing data set (no cost, no trace events).
	Preload(name string, size int64) (pfs.FileInfo, error)
	// ReserveIDs skips low file ids so traces align with descriptor
	// numbering conventions.
	ReserveIDs(n int)
	// SetPhase labels subsequent trace events with an application phase.
	SetPhase(p iotrace.Phase)
	// Stat reports a file's identity and extent (bookkeeping; free).
	Stat(name string) (pfs.FileInfo, bool)
}

// Handle is one node's open descriptor.
type Handle interface {
	Read(p *sim.Process, n int64) (int64, error)
	Write(p *sim.Process, n int64) (int64, error)
	ReadAsync(p *sim.Process, n int64) (AsyncRead, error)
	Seek(p *sim.Process, offset int64, whence int) (int64, error)
	Close(p *sim.Process) error
	Lsize(p *sim.Process) (int64, error)
	Flush(p *sim.Process) error
	SetIOMode(p *sim.Process, mode iotrace.AccessMode, recordLen int64) error
	Offset() int64
}

// AsyncRead is an in-flight asynchronous read.
type AsyncRead interface {
	Wait(p *sim.Process) (int64, error)
}

// PFS adapts a *pfs.FileSystem to the FS interface.
type PFS struct {
	*pfs.FileSystem
}

// WrapPFS wraps a PFS instance as a workload FS.
func WrapPFS(fs *pfs.FileSystem) PFS { return PFS{fs} }

// Create implements FS.
func (w PFS) Create(p *sim.Process, node int, name string, mode iotrace.AccessMode) (Handle, error) {
	h, err := w.FileSystem.Create(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	return pfsHandle{h}, nil
}

// Open implements FS.
func (w PFS) Open(p *sim.Process, node int, name string, mode iotrace.AccessMode) (Handle, error) {
	h, err := w.FileSystem.Open(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	return pfsHandle{h}, nil
}

// OpenRecord implements FS.
func (w PFS) OpenRecord(p *sim.Process, node int, name string, recordLen int64) (Handle, error) {
	h, err := w.FileSystem.OpenRecord(p, node, name, recordLen)
	if err != nil {
		return nil, err
	}
	return pfsHandle{h}, nil
}

type pfsHandle struct {
	*pfs.Handle
}

func (h pfsHandle) ReadAsync(p *sim.Process, n int64) (AsyncRead, error) {
	ar, err := h.Handle.ReadAsync(p, n)
	if err != nil {
		return nil, err
	}
	return ar, nil
}

// Interface-satisfaction checks.
var (
	_ FS        = PFS{}
	_ Handle    = pfsHandle{}
	_ AsyncRead = (*pfs.AsyncRead)(nil)
)

package pfs

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// File is the per-file shared state: identity, extent, striping placement,
// and the synchronization objects that implement the shared-pointer modes.
type File struct {
	fs   *FileSystem
	id   iotrace.FileID
	name string
	size int64

	firstIONode int // stripe 0 lives here; stripes proceed round-robin

	// atomicity token: held across M_UNIX transfers (POSIX atomicity) and
	// M_UNIX seeks (PFS validated seeks with the I/O subsystem).
	token *sim.Resource

	// shared file pointer for M_LOG / M_SYNC / M_GLOBAL.
	sharedOff  int64
	sharedMode iotrace.AccessMode // which shared mode owns the pointer, if any

	// M_SYNC node-order sequencing.
	seq *sim.Sequencer

	// M_RECORD fixed record length (0 = not yet fixed).
	recordLen int64

	// M_GLOBAL rounds: round index -> in-flight round state.
	global map[int64]*globalRound

	openHandles int
}

type globalRound struct {
	comp  *sim.Completion
	bytes int64
	off   int64
}

func newFile(fs *FileSystem, id iotrace.FileID, name string) *File {
	return &File{
		fs:          fs,
		id:          id,
		name:        name,
		firstIONode: int(id) % len(fs.ion),
		token:       sim.NewResource(fs.eng, fmt.Sprintf("pfs-token-%s", name), 1),
		seq:         sim.NewSequencer(fs.eng, fmt.Sprintf("pfs-sync-%s", name)),
		global:      make(map[int64]*globalRound),
	}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// stripeIONode maps a file-relative stripe index to an I/O node.
func (f *File) stripeIONode(stripe int64, nion int) int {
	return (f.firstIONode + int(stripe%int64(nion))) % nion
}

// arrayAddr maps a (stripe, intra-stripe offset) to a synthetic array byte
// address such that consecutive stripes of this file on the same array are
// adjacent — so sequential file access is sequential at each array, which is
// what drives the positioning-time model.
func (f *File) arrayAddr(stripe, within int64, nion int, su int64) int64 {
	localChunk := stripe / int64(nion)
	return int64(f.id)<<34 + localChunk*su + within
}

// extend grows the file if the access reaches past the current size.
func (f *File) extend(end int64) {
	if end > f.size {
		f.size = end
	}
}

// checkMode enforces that a file is not simultaneously driven through two
// different shared-pointer disciplines.
func (f *File) checkMode(mode iotrace.AccessMode) error {
	shared := mode == iotrace.ModeLog || mode == iotrace.ModeSync || mode == iotrace.ModeGlobal
	if !shared {
		return nil
	}
	if f.sharedMode == iotrace.ModeNone || f.openHandles == 0 {
		f.sharedMode = mode
		return nil
	}
	if f.sharedMode != mode {
		return ErrModeMismatch
	}
	return nil
}

func (f *File) setRecordLen(n int64) error {
	if f.recordLen != 0 && f.recordLen != n {
		return ErrRecordLength
	}
	f.recordLen = n
	return nil
}

func (f *File) newHandle(node int, mode iotrace.AccessMode) *Handle {
	f.openHandles++
	return &Handle{fs: f.fs, file: f, node: node, mode: mode}
}

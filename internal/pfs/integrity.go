// Integrity plumbing: mapping between file extents and the per-node
// checksum stores, plus the corruption ledger used by resilient restarts
// (latent corruption survives an application restart on the same storage, so
// the harvested ledger is re-injected into the fresh PFS instance).
package pfs

import (
	"sort"

	"repro/internal/integrity"
	"repro/internal/iotrace"
)

// IntegrityStats returns every I/O node's integrity counters, in node order;
// nil when the layer is disabled.
func (fs *FileSystem) IntegrityStats() []integrity.Stats {
	var out []integrity.Stats
	for _, n := range fs.ion {
		if s, ok := n.IntegrityStats(); ok {
			out = append(out, s)
		}
	}
	return out
}

// IntegrityEvents returns the corruption event timeline across all nodes,
// ordered by injection time (then node, then block).
func (fs *FileSystem) IntegrityEvents() []integrity.Event {
	var out []integrity.Event
	for _, n := range fs.ion {
		if st := n.Integrity(); st != nil {
			out = append(out, st.Events()...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.InjectedAt != b.InjectedAt {
			return a.InjectedAt < b.InjectedAt
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Block < b.Block
	})
	return out
}

// AuditIntegrity runs the end-of-run verification sweep on every node: all
// tracked blocks are verified (no simulated time — the run is over),
// parity-repairable latent errors are repaired where the array still has
// parity, and the rest are left open for the report. Call once before
// reading IntegrityStats for a final report.
func (fs *FileSystem) AuditIntegrity() {
	now := fs.eng.Now()
	for _, n := range fs.ion {
		st := n.Integrity()
		if st == nil {
			continue
		}
		arr := n.Array()
		st.Audit(now, arr.Degraded() || arr.Dead())
	}
}

// VerifyFile checks the checksum state covering a file's primary stripes
// without charging simulated time, marking any detections with the given
// label ("restart" for checkpoint restart verification). It returns false
// when any covered block holds latent corruption. Unknown files verify
// trivially.
func (fs *FileSystem) VerifyFile(name, by string) bool {
	f, exists := fs.files[name]
	if !exists || f.size == 0 {
		return true
	}
	if !fs.cfg.Integrity.Enabled {
		return true
	}
	now := fs.eng.Now()
	su := fs.cfg.StripeUnit
	nion := len(fs.ion)
	ok := true
	for off := int64(0); off < f.size; {
		stripe := off / su
		chunkEnd := (stripe + 1) * su
		if chunkEnd > f.size {
			chunkEnd = f.size
		}
		st := fs.ion[f.stripeIONode(stripe, nion)].Integrity()
		addr := f.arrayAddr(stripe, off%su, nion, su)
		if st != nil && st.VerifyExtent(now, addr, chunkEnd-off, by) {
			ok = false
		}
		off = chunkEnd
	}
	return ok
}

// CorruptRange names one still-corrupt extent in file coordinates — the
// portable form of the corruption ledger that survives an application
// restart (array addresses depend on file IDs, which a fresh run reassigns).
type CorruptRange struct {
	File    string
	Offset  int64
	Bytes   int64
	Replica int // copy index the corruption sits on (0 = the primary copy)
	Class   integrity.Class
}

// fileOffset maps an I/O node's local byte address back to the owning
// file's offset (the inverse of stripeIONode + arrayAddr). For a replica
// copy the placement ring is inverted to find the chunk's primary first.
func (fs *FileSystem) fileOffset(f *File, node int, localByte int64, replica int) int64 {
	nion := len(fs.ion)
	su := fs.cfg.StripeUnit
	primary := fs.plc.primaryOf(node, replica)
	localChunk := localByte / su
	within := localByte % su
	slot := (primary - f.firstIONode + nion) % nion
	stripe := localChunk*int64(nion) + int64(slot)
	return stripe*su + within
}

// HarvestCorruption collects every block still holding latent corruption,
// mapped back to file coordinates, sorted by (file, offset, replica). A
// resilient restart harvests the dying instance's ledger, which its halted
// engine left as it stood at the failure, and re-injects it into the fresh
// one — corruption on disk does not go away because the application
// restarted.
func (fs *FileSystem) HarvestCorruption() []CorruptRange {
	if !fs.cfg.Integrity.Enabled {
		return nil
	}
	byID := make(map[iotrace.FileID]*File, len(fs.files))
	for _, f := range fs.files {
		byID[f.id] = f
	}
	su := fs.cfg.StripeUnit
	var out []CorruptRange
	for i, n := range fs.ion {
		st := n.Integrity()
		if st == nil {
			continue
		}
		bs := st.BlockBytes()
		for _, cb := range st.CorruptBlocks() {
			base, replica := splitReplicaAddr(cb.Block * bs)
			local := base & localAddrMask
			f := byID[iotrace.FileID(base>>34)]
			if f == nil {
				continue // not PFS-addressed state; nothing to carry
			}
			bytes := su - local%su
			if bytes > bs {
				bytes = bs
			}
			out = append(out, CorruptRange{
				File:    f.name,
				Offset:  fs.fileOffset(f, i, local, replica),
				Bytes:   bytes,
				Replica: replica,
				Class:   cb.Class,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.Replica < b.Replica
	})
	return out
}

// InjectCorruption re-injects a harvested ledger into this instance,
// marking the mapped blocks corrupt (as carried events). Ranges naming
// files this instance has not (re)created yet are skipped — their storage
// was not reused. It returns the number of ranges applied.
func (fs *FileSystem) InjectCorruption(recs []CorruptRange) int {
	if !fs.cfg.Integrity.Enabled {
		return 0
	}
	su := fs.cfg.StripeUnit
	nion := len(fs.ion)
	now := fs.eng.Now()
	applied := 0
	for _, r := range recs {
		f, exists := fs.files[r.File]
		if !exists || r.Class == integrity.ClassNone {
			continue
		}
		stripe := r.Offset / su
		within := r.Offset % su
		ionIdx := f.stripeIONode(stripe, nion)
		addr := f.arrayAddr(stripe, within, nion, su)
		if r.Replica > 0 {
			ionIdx = fs.plc.target(ionIdx, r.Replica)
			addr = replicaAddr(addr, r.Replica)
		}
		st := fs.ion[ionIdx].Integrity()
		if st == nil {
			continue
		}
		n := r.Bytes
		if n <= 0 {
			n = 1
		}
		st.MarkCorrupt(now, addr, n, r.Class)
		applied++
	}
	return applied
}

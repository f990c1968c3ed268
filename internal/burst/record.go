package burst

import (
	"repro/internal/integrity"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Record is one committed log entry: a write the application considers
// durable, waiting for the drain daemon to land it on the PFS. Sum is the
// entry's checksum, computed at commit and re-verified at drain — the log is
// inside the end-to-end integrity domain, so a record that rots in the buffer
// is caught before it reaches storage.
type Record struct {
	Seq    uint64        // tier-wide commit sequence number
	Node   int           // committing compute node
	File   string        // target PFS file
	Offset int64         // target file offset
	Bytes  int64         // logical length
	Class  iotrace.Phase // workload class (application phase at commit time)
	Sum    uint64        // commit-time checksum

	commitAt sim.Time
}

// checksum derives the record's identity-bound checksum: like the storage
// layer's block checksums it folds position into the sum, so a record replayed
// at the wrong slot fails verification rather than landing silently.
func checksum(seq uint64, node int, off int64) uint64 {
	return integrity.Checksum(off^int64(seq), uint64(node)+seq<<1)
}

// Seal stamps the record's checksum from its identity fields; the commit path
// seals every record before it enters the log.
func (r Record) Seal() Record {
	r.Sum = checksum(r.Seq, r.Node, r.Offset)
	return r
}

// Verify recomputes the identity-bound checksum and compares it to Sum.
func (r Record) Verify() bool {
	return r.Sum == checksum(r.Seq, r.Node, r.Offset)
}

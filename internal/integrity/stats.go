package integrity

import "repro/internal/sim"

// numClasses sizes the per-class counters (ClassNone..Misdirected).
const numClasses = 4

// Stats are one store's accumulated integrity counters. Aggregate sums them
// across nodes; Node is the owning I/O node (-1 for an aggregate).
type Stats struct {
	Node          int
	TrackedBlocks int64 // blocks with checksum state (ever written)

	// Verification traffic.
	ChecksummedWrites int64 // blocks checksummed on the write path
	VerifiedBlocks    int64 // blocks verified (reads + scrub)
	VerifiedBytes     int64

	// Injection.
	Injected        int64 // corruptions injected on this store
	InjectedByClass [numClasses]int64
	Carried         int64 // re-injected from a previous attempt's ledger

	// Detection, by first detector.
	DetectedRead    int64
	DetectedScrub   int64
	DetectedRestart int64 // checkpoint restart verification
	DetectedAudit   int64 // end-of-run audit only — silent during the run

	// Resolution.
	RepairedParity    int64 // reconstructed from parity (incl. audit repairs)
	AuditRepairs      int64 // subset of RepairedParity done by the audit
	HealedByRewrite   int64 // detected corruption cleared by a later write
	ClearedUndetected int64 // corruption overwritten before anything saw it

	// Read-path failures.
	CorruptReads int64 // read requests failed with ErrCorrupt

	// Scrubber activity.
	ScrubbedBlocks int64
	ScrubPasses    int64 // full sweeps completed
	ScrubRepairs   int64 // subset of RepairedParity driven by the scrubber
	ScrubTime      sim.Time

	// Computed at Stats() time.
	OutstandingCorrupt int64 // blocks still corrupt
	UnrepairableOpen   int64 // detected, reported, but not repairable
}

// Detected is the total corruptions found by any detector.
func (s Stats) Detected() int64 {
	return s.DetectedRead + s.DetectedScrub + s.DetectedRestart + s.DetectedAudit
}

// Silent is the corruptions nothing caught while the run was live: first
// found by the end-of-run audit.
func (s Stats) Silent() int64 { return s.DetectedAudit }

// Aggregate sums per-node stats into one report row with Node = -1.
func Aggregate(per []Stats) Stats {
	t := Stats{Node: -1}
	for _, s := range per {
		t.TrackedBlocks += s.TrackedBlocks
		t.ChecksummedWrites += s.ChecksummedWrites
		t.VerifiedBlocks += s.VerifiedBlocks
		t.VerifiedBytes += s.VerifiedBytes
		t.Injected += s.Injected
		for c := range s.InjectedByClass {
			t.InjectedByClass[c] += s.InjectedByClass[c]
		}
		t.Carried += s.Carried
		t.DetectedRead += s.DetectedRead
		t.DetectedScrub += s.DetectedScrub
		t.DetectedRestart += s.DetectedRestart
		t.DetectedAudit += s.DetectedAudit
		t.RepairedParity += s.RepairedParity
		t.AuditRepairs += s.AuditRepairs
		t.HealedByRewrite += s.HealedByRewrite
		t.ClearedUndetected += s.ClearedUndetected
		t.CorruptReads += s.CorruptReads
		t.ScrubbedBlocks += s.ScrubbedBlocks
		t.ScrubPasses += s.ScrubPasses
		t.ScrubRepairs += s.ScrubRepairs
		t.ScrubTime += s.ScrubTime
		t.OutstandingCorrupt += s.OutstandingCorrupt
		t.UnrepairableOpen += s.UnrepairableOpen
	}
	return t
}

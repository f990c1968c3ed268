package pfs

import "repro/internal/sim"

// ReliabilityConfig governs the client-side reliability layer layered over
// the transfer path: per-request deadlines, bounded retries with seeded
// exponential backoff + jitter for corrupt reads. The zero value disables the
// layer entirely and leaves the data path bit-identical to the pre-existing
// failover behaviour.
type ReliabilityConfig struct {
	// Enabled turns the layer on. All other fields are ignored when false.
	Enabled bool

	// Deadline bounds each Read/Write call end to end: once it passes, the
	// retry machinery stops and the call fails with ErrDeadline instead of
	// backing off further. Zero means no deadline.
	Deadline sim.Time

	// MaxRetries bounds the corrupt-read retry loop (distinct from the
	// failover retry budget, which covers dead nodes).
	MaxRetries int
}

// The reliability layer's retry timing: the first corrupt-retry delay is
// 10 ms and doubles per attempt, and every reliability-layer backoff
// (including the failover path's, when the layer is enabled) is perturbed by
// a seeded uniform factor in [0.8, 1.2], decorrelating retry storms across
// clients. The seed fixes the jitter stream: same run, same timeline.
const (
	relBackoff = 10 * sim.Millisecond
	relJitter  = 0.2
	relSeed    = 0x524c4941 // "RLIA"
)

// DefaultReliabilityConfig returns the enabled default policy: no deadline,
// 3 corrupt retries.
func DefaultReliabilityConfig() ReliabilityConfig {
	return ReliabilityConfig{Enabled: true, MaxRetries: 3}
}

// Normalized fills a zero retry budget with the default (only meaningful
// when Enabled).
func (c ReliabilityConfig) Normalized() ReliabilityConfig {
	if c.Enabled && c.MaxRetries <= 0 {
		c.MaxRetries = DefaultReliabilityConfig().MaxRetries
	}
	return c
}

// ReliabilityStats counts the reliability layer's activity. All zeros when
// the layer is disabled or the run is healthy.
type ReliabilityStats struct {
	Requests         int64    // transfers entered with the layer enabled
	DeadlineExceeded int64    // transfers abandoned at their deadline
	Retries          int64    // corrupt-read retry attempts issued
	RetryBackoffTime sim.Time // total seeded backoff slept by retries
	CorruptRetries   int64    // retry rounds triggered by ErrCorrupt
	CorruptReroutes  int64    // corrupt chunks completed from the replica
	CorruptFailed    int64    // chunks abandoned still corrupt
	RepairWrites     int64    // background heal writes to corrupt primaries
	QuorumReads      int64    // extra replica reads issued by the quorum policy
}

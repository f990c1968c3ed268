package cache

import "repro/internal/sim"

// The cache's fixed costs and daemon pacing.
const (
	// hitOverhead is the I/O-node software cost charged per cache hit
	// (lookup plus buffer management); hits bypass the array queue.
	hitOverhead = 200 * sim.Microsecond

	// memBWBytesPerS is the node memory bandwidth used to charge hit and
	// write-behind data movement.
	memBWBytesPerS = 200e6

	// flushDelay is the write-behind daemon's pause between flush passes.
	flushDelay = 50 * sim.Millisecond

	// prefetchDepth is how many blocks ahead a sequential stream's
	// readahead ramps up to.
	prefetchDepth = 4
)

// Config describes one I/O node's block cache. The zero value disables
// caching entirely; DefaultConfig returns the enabled policy the cache
// sweeps and CLI flags use. Blocks are one PFS stripe unit: they are fetched
// and flushed whole and block-aligned, so a block fetch is one contiguous
// array request.
type Config struct {
	// Enabled turns the cache on. All other fields are ignored when false.
	Enabled bool

	// CapacityBytes bounds resident data; eviction is LRU. Default 8 MB,
	// matching the per-I/O-node buffer memory the paper's §8 remedies
	// assume (a small fraction of the node's 32 MB).
	CapacityBytes int64

	// WriteBehind installs dirty blocks and lets a flush daemon write them
	// back later (coalescing contiguous runs). When false, writes go
	// through synchronously and install clean.
	WriteBehind bool

	// Prefetch enables pattern-driven readahead: sequential streams ramp
	// up to prefetchDepth blocks ahead, strided streams fetch the one
	// predicted next block, random streams fetch nothing.
	Prefetch bool

	// FlushOnFail selects the outage policy for dirty blocks: true drains
	// them synchronously to the array before the node goes down (graceful
	// handoff, charged to the failing instant); false loses them, counted
	// in Stats as lost-and-replayed (the PFS failover/replica path is the
	// application's recovery story).
	FlushOnFail bool
}

// DefaultConfig returns the enabled default policy: 8 MB capacity,
// write-behind with a 50 ms flush delay, prefetch depth 4.
func DefaultConfig() Config {
	return Config{
		Enabled:       true,
		CapacityBytes: 8 << 20,
		WriteBehind:   true,
		Prefetch:      true,
	}
}

// Normalized fills a zero capacity with the default.
func (c Config) Normalized() Config {
	if c.CapacityBytes <= 0 {
		c.CapacityBytes = DefaultConfig().CapacityBytes
	}
	return c
}

// Package ppfs reimplements the policy layer of PPFS, the Portable Parallel
// File System the paper's group built [8] and used for the §5.2 experiment:
// a user-level library over the native parallel file system that adds
// caching, prefetching, write-behind and request aggregation, in the one
// configuration the §5.2 experiment ran, and optionally lets an adaptive
// classifier (§10) turn prefetching and write-behind off per stream.
//
// It implements the same workload.FS surface as raw PFS, so the identical
// application skeleton runs on either — which is what makes the paper's
// ablation ("this combination of policies effectively eliminated the
// behavior seen in Figure 4") an apples-to-apples comparison here.
//
// Two event streams result from a PPFS run: the application-visible stream
// captured by the recorder installed on the PPFS layer (small writes return
// at memory-copy cost), and the physical stream the underlying PFS serves
// (few, large, aggregated extents written by background flushers), which
// its per-op counters count and a recorder on it can capture.
package ppfs

import "repro/internal/sim"

// The §5.2 configuration every PPFS instance runs: write-behind with global
// aggregation, a shared client block cache, and sequential prefetching.
// Writes of at least one stripe unit go straight to the file system (they
// are already efficient there), and a file's buffered bytes start a
// background flush once they reach four stripe units.
const (
	// flushInterval bounds how long buffered data may linger.
	flushInterval = 1 * sim.Second

	// cacheBlocks and blockSize shape the client block cache used for
	// reads.
	cacheBlocks       = 256
	blockSize   int64 = 64 * 1024

	// prefetch is how many blocks ahead a sequential read stream fetches.
	prefetch = 2

	// bypassBytes streams reads at least this large directly, without
	// polluting the block cache.
	bypassBytes = 4 * blockSize

	// copyBytesPerS is the client memory-copy bandwidth charged when data
	// moves between application and cache/buffer (a mid-1990s node).
	copyBytesPerS = 30e6
)

// Policy selects the client-side behaviors of a PPFS instance.
type Policy struct {
	// Adaptive consults the access-pattern classifier (§10) per stream and
	// applies prefetching only to streams it classifies as sequential and
	// write-behind only to small-request write streams, instead of
	// unconditionally.
	Adaptive bool
}

// DefaultPolicy returns the policy used for the §5.2 experiment: the fixed
// configuration above, applied unconditionally.
func DefaultPolicy() Policy { return Policy{} }

// Stats counts policy-layer activity.
type Stats struct {
	CacheHits      int64 // read bytes served from cache or write buffer
	CacheMisses    int64 // block fetches from the file system
	Prefetches     int64 // blocks fetched ahead of demand
	PrefetchHits   int64 // demand reads that found a prefetched block
	BufferedWrites int64 // writes absorbed by write-behind
	DirectWrites   int64 // writes sent straight through
	Flushes        int64 // physical write extents issued by flushers
	FlushedBytes   int64 // bytes those extents carried
	Drains         int64 // synchronous drains forced by reads/closes
}

// MeanFlushExtent returns the average physical flush size in bytes.
func (s Stats) MeanFlushExtent() int64 {
	if s.Flushes == 0 {
		return 0
	}
	return s.FlushedBytes / s.Flushes
}

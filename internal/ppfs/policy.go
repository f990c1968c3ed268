// Package ppfs reimplements the policy layer of PPFS, the Portable Parallel
// File System the paper's group built [8] and used for the §5.2 experiment:
// a user-level library over the native parallel file system that lets
// applications (or an adaptive classifier, §10) choose caching, prefetching,
// write-behind and request-aggregation policies per file.
//
// It implements the same workload.FS surface as raw PFS, so the identical
// application skeleton runs on either — which is what makes the paper's
// ablation ("this combination of policies effectively eliminated the
// behavior seen in Figure 4") an apples-to-apples comparison here.
//
// Two event streams result from a PPFS run: the application-visible stream
// captured by the recorder installed on the PPFS layer (small writes return
// at memory-copy cost), and the physical stream captured by the recorder on
// the underlying PFS (few, large, aggregated extents written by background
// flushers).
package ppfs

import (
	"fmt"

	"repro/internal/sim"
)

// Policy selects the client-side behaviors of a PPFS instance.
type Policy struct {
	// WriteBehind buffers small sequential-or-not writes client-side and
	// completes them immediately; background flushers push the data to the
	// file system.
	WriteBehind bool

	// Aggregation coalesces buffered writes into contiguous extents before
	// flushing, turning many small requests into few large ones (the §8
	// "impedance matching"). Requires WriteBehind.
	Aggregation bool

	// FlushHighWater triggers an immediate background flush when a file's
	// buffered bytes reach it; FlushInterval bounds how long buffered data
	// may linger. Zero values take defaults (4 stripe units, 1 s).
	FlushHighWater int64
	FlushInterval  sim.Time

	// DirectWriteBytes sends writes at least this large straight to the
	// file system even when write-behind is on (they are already efficient
	// there). Zero takes the default (one stripe unit).
	DirectWriteBytes int64

	// CacheBlocks and BlockSize shape the client block cache used for
	// reads. CacheBlocks == 0 disables caching.
	CacheBlocks int
	BlockSize   int64

	// Prefetch reads this many blocks ahead when the classifier sees a
	// sequential read stream. 0 disables prefetching.
	Prefetch int

	// BypassBytes streams reads at least this large directly, without
	// polluting the block cache. Zero takes the default (4 blocks).
	BypassBytes int64

	// CopyBytesPerS is the client memory-copy bandwidth charged when data
	// moves between application and cache/buffer. Zero takes the default
	// (30 MB/s, a mid-1990s node).
	CopyBytesPerS float64

	// Adaptive consults the access-pattern classifier (§10) per stream and
	// applies prefetching only to streams it classifies as sequential and
	// write-behind only to small-request write streams, instead of
	// unconditionally.
	Adaptive bool
}

// DefaultPolicy returns the configuration used for the §5.2 experiment:
// write-behind with global aggregation, a modest block cache, and sequential
// prefetching.
func DefaultPolicy() Policy {
	return Policy{
		WriteBehind: true,
		Aggregation: true,
		CacheBlocks: 256,
		BlockSize:   64 * 1024,
		Prefetch:    2,
	}
}

// withDefaults fills zero values.
func (p Policy) withDefaults(stripe int64) Policy {
	if p.FlushHighWater == 0 {
		p.FlushHighWater = 4 * stripe
	}
	if p.FlushInterval == 0 {
		p.FlushInterval = 1 * sim.Second
	}
	if p.DirectWriteBytes == 0 {
		p.DirectWriteBytes = stripe
	}
	if p.BlockSize == 0 {
		p.BlockSize = stripe
	}
	if p.BypassBytes == 0 {
		p.BypassBytes = 4 * p.BlockSize
	}
	if p.CopyBytesPerS == 0 {
		p.CopyBytesPerS = 30e6
	}
	return p
}

// Validate rejects inconsistent policies.
func (p Policy) Validate() error {
	if p.Aggregation && !p.WriteBehind {
		return fmt.Errorf("ppfs: aggregation requires write-behind")
	}
	if p.CacheBlocks < 0 || p.Prefetch < 0 {
		return fmt.Errorf("ppfs: negative cache/prefetch in %+v", p)
	}
	if p.Prefetch > 0 && p.CacheBlocks == 0 {
		return fmt.Errorf("ppfs: prefetch requires a block cache")
	}
	if p.BlockSize < 0 || p.FlushHighWater < 0 || p.FlushInterval < 0 {
		return fmt.Errorf("ppfs: negative sizes in %+v", p)
	}
	return nil
}

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

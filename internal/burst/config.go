// Package burst models a per-compute-node burst buffer: a host-side logging
// tier between the application and the PFS, after the design of ParaLog/iFast.
// Checkpoint writes and M_LOG traffic commit to the node-local log at memory/
// NVM bandwidth and return immediately; a deterministic drain daemon
// flushes committed entries to the PFS in the background, through a modeled
// compression stage, with backpressure when the log fills.
//
// The tier is a performance model like the PFS underneath it: records carry
// offsets, sizes and checksums but no payload. Determinism follows from the
// simulation engine — the same configuration drains in the same order at the
// same instants.
package burst

import (
	"fmt"

	"repro/internal/sim"
)

// The tier's fixed rates and retry policy.
const (
	// commitBWBytesPerS is the local commit bandwidth (conservative
	// NVM-class write speed); commitOverhead is the fixed per-record commit
	// cost.
	commitBWBytesPerS = 400e6
	commitOverhead    = 20 * sim.Microsecond

	// drainDelay is how long a newly woken drain daemon lingers before
	// flushing, modeling the daemon's wakeup latency.
	drainDelay = sim.Millisecond

	// verifyBWBytesPerS is the checksum-verification scan rate the drain
	// daemon pays before handing a record to the PFS.
	verifyBWBytesPerS = 2e9

	// compressCPUBytesPerS is the compressor's throughput; each compressed
	// record charges logical-bytes / compressCPUBytesPerS of daemon time.
	compressCPUBytesPerS = 500e6

	// maxDrainRetries bounds per-record drain attempts against a PFS that
	// keeps failing (an outage outlasting failover); an exhausted record
	// is dropped and counted in Stats.DrainFails so the queue always
	// empties. retryDelay is the pause between attempts.
	maxDrainRetries = 64
	retryDelay      = 250 * sim.Millisecond
)

// CompressConfig models the drain pipeline's compression stage. The ratio is
// logical-bytes / wire-bytes (2.0 halves the drained volume).
type CompressConfig struct {
	// Enabled turns the stage on. Off, wire bytes equal logical bytes and
	// no CPU cost is charged.
	Enabled bool

	// Ratio is the compression ratio of every drained record. Values <= 1
	// drain uncompressed.
	Ratio float64
}

// Config parameterizes one burst tier instance.
type Config struct {
	// Enabled turns the tier on; a zero Config is off and the stack runs
	// exactly as without the tier.
	Enabled bool

	// CapacityBytes is each node's log capacity. Commits that would
	// overfill the log block until the drain daemon frees space; single
	// records larger than the whole log bypass straight to the PFS.
	CapacityBytes int64

	// DrainBWBytesPerS caps the host-side drain injection rate; zero
	// drains as fast as the PFS accepts.
	DrainBWBytesPerS float64

	// Compress is the drain pipeline's compression stage.
	Compress CompressConfig

	// Prefixes routes writes to files whose names start with any of these
	// prefixes through the log regardless of I/O mode (M_LOG traffic is
	// always intercepted). The resilience driver adds the checkpoint file
	// base automatically.
	Prefixes []string

	// PerNodeCapacity, when non-empty, gives compute node i the log
	// capacity PerNodeCapacity[i] — the heterogeneous-fleet shape, where
	// node templates carry different burst-log sizes. Entries <= 0 (and
	// nodes beyond the slice) fall back to CapacityBytes.
	PerNodeCapacity []int64
}

// DefaultConfig returns a 64 MB node log committing at 400 MB/s with 1.8x
// compression of checkpoint-class data.
func DefaultConfig() Config {
	return Config{
		Enabled:       true,
		CapacityBytes: 64 << 20,
		Compress:      CompressConfig{Enabled: true, Ratio: 1.8},
	}
}

// Normalized fills zero fields with defaults, leaving set fields alone.
func (c Config) Normalized() Config {
	d := DefaultConfig()
	if c.CapacityBytes == 0 {
		c.CapacityBytes = d.CapacityBytes
	}
	if c.Compress.Enabled && c.Compress.Ratio == 0 {
		c.Compress.Ratio = d.Compress.Ratio
	}
	return c
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.CapacityBytes < 1 {
		return fmt.Errorf("burst: capacity %d bytes", c.CapacityBytes)
	}
	if c.DrainBWBytesPerS < 0 {
		return fmt.Errorf("burst: negative drain bandwidth")
	}
	return nil
}

// ratio returns the compression ratio applied to a drained record, clamped
// to >= 1 (compression never inflates in this model).
func (c Config) ratio() float64 {
	if !c.Compress.Enabled || c.Compress.Ratio < 1 {
		return 1
	}
	return c.Compress.Ratio
}

// wireBytes returns the drained (post-compression) size of a logical extent.
func (c Config) wireBytes(logical int64) int64 {
	r := c.ratio()
	if r <= 1 {
		return logical
	}
	w := int64(float64(logical) / r)
	if w < 1 && logical > 0 {
		w = 1
	}
	return w
}

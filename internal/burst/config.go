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

// CompressConfig models the drain pipeline's compression stage. The ratio is
// logical-bytes / wire-bytes (2.0 halves the drained volume).
type CompressConfig struct {
	// Enabled turns the stage on. Off, wire bytes equal logical bytes and
	// no CPU cost is charged.
	Enabled bool

	// Ratio is the compression ratio of every drained record. Values <= 1
	// drain uncompressed.
	Ratio float64

	// CPUBytesPerS is the compressor's throughput; each drained record
	// charges logical-bytes / CPUBytesPerS of daemon time.
	CPUBytesPerS float64
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

	// CommitBWBytesPerS is the local commit bandwidth (memory or NVM
	// write speed); CommitOverhead is the fixed per-record commit cost.
	CommitBWBytesPerS float64
	CommitOverhead    sim.Time

	// DrainDelay is how long a newly woken drain daemon lingers before
	// flushing, modeling the daemon's wakeup latency.
	DrainDelay sim.Time

	// DrainBWBytesPerS caps the host-side drain injection rate; zero
	// drains as fast as the PFS accepts.
	DrainBWBytesPerS float64

	// VerifyBWBytesPerS is the checksum-verification scan rate the drain
	// daemon pays before handing a record to the PFS; zero skips the
	// charge (the verification itself always runs).
	VerifyBWBytesPerS float64

	// Compress is the drain pipeline's compression stage.
	Compress CompressConfig

	// MaxDrainRetries bounds per-record drain attempts against a PFS that
	// keeps failing (an outage outlasting failover); an exhausted record
	// is dropped and counted in Stats.DrainFailures so the queue always
	// empties. RetryDelay is the pause between attempts.
	MaxDrainRetries int
	RetryDelay      sim.Time

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

// DefaultConfig returns a 64 MB node log committing at 400 MB/s (conservative
// NVM-class write bandwidth) with 1.8x compression of checkpoint-class data.
func DefaultConfig() Config {
	return Config{
		Enabled:           true,
		CapacityBytes:     64 << 20,
		CommitBWBytesPerS: 400e6,
		CommitOverhead:    20 * sim.Microsecond,
		DrainDelay:        sim.Millisecond,
		VerifyBWBytesPerS: 2e9,
		Compress: CompressConfig{
			Enabled:      true,
			Ratio:        1.8,
			CPUBytesPerS: 500e6,
		},
		MaxDrainRetries: 64,
		RetryDelay:      250 * sim.Millisecond,
	}
}

// Normalized fills zero fields with defaults, leaving set fields alone.
func (c Config) Normalized() Config {
	d := DefaultConfig()
	if c.CapacityBytes == 0 {
		c.CapacityBytes = d.CapacityBytes
	}
	if c.CommitBWBytesPerS == 0 {
		c.CommitBWBytesPerS = d.CommitBWBytesPerS
	}
	if c.CommitOverhead == 0 {
		c.CommitOverhead = d.CommitOverhead
	}
	if c.DrainDelay == 0 {
		c.DrainDelay = d.DrainDelay
	}
	if c.VerifyBWBytesPerS == 0 {
		c.VerifyBWBytesPerS = d.VerifyBWBytesPerS
	}
	if c.MaxDrainRetries == 0 {
		c.MaxDrainRetries = d.MaxDrainRetries
	}
	if c.RetryDelay == 0 {
		c.RetryDelay = d.RetryDelay
	}
	if c.Compress.Enabled {
		if c.Compress.Ratio == 0 {
			c.Compress.Ratio = d.Compress.Ratio
		}
		if c.Compress.CPUBytesPerS == 0 {
			c.Compress.CPUBytesPerS = d.Compress.CPUBytesPerS
		}
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
	if c.CommitBWBytesPerS <= 0 {
		return fmt.Errorf("burst: commit bandwidth %g B/s", c.CommitBWBytesPerS)
	}
	if c.DrainBWBytesPerS < 0 || c.VerifyBWBytesPerS < 0 {
		return fmt.Errorf("burst: negative drain/verify bandwidth")
	}
	if c.Compress.Enabled && c.Compress.CPUBytesPerS <= 0 {
		return fmt.Errorf("burst: compression enabled with %g B/s CPU rate",
			c.Compress.CPUBytesPerS)
	}
	if c.MaxDrainRetries < 1 {
		return fmt.Errorf("burst: %d drain retries", c.MaxDrainRetries)
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

package integrity

import "repro/internal/sim"

// The checksum layer's costs: every request pays a fixed node cost for
// checksum bookkeeping (on writes: computing sums; on reads: verifying them)
// plus its bytes at the checksum-compute bandwidth.
const (
	verifyOverhead    = 50 * sim.Microsecond
	verifyBWBytesPerS = 400e6
)

// ScrubSliceBytes is the scrubber's work quantum per queue acquisition, so
// scrub traffic interleaves with (and is delayed by) foreground requests.
const ScrubSliceBytes = 512 << 10

// Config describes one I/O node's integrity layer. The zero value disables
// it entirely: no checksum state, no verify cost, data path bit-identical to
// a build without the package. One stored sum covers one checksum block, the
// PFS stripe unit, so one stripe chunk verifies as one unit.
type Config struct {
	// Enabled turns the layer on. Scrub is ignored when false.
	Enabled bool

	// Scrub configures the background scrubber.
	Scrub ScrubConfig
}

// ScrubConfig drives the background scrubber: a per-node process that sweeps
// written blocks at a bounded rate, verifying and repairing latent errors
// before a demand read trips over them.
type ScrubConfig struct {
	// Enabled turns the scrubber on.
	Enabled bool

	// RateBytesPerS bounds the scrub bandwidth: each slice's array time plus
	// idle pause average out to this rate. Default 4 MB/s.
	RateBytesPerS float64

	// Window is the simulated instant the scrubber stands down (it must
	// terminate for the run to drain). Default 600 s, matching the chaos
	// window convention of the fault plans.
	Window sim.Time
}

// DefaultConfig returns the enabled default policy: 50 µs verify overhead,
// 400 MB/s checksum bandwidth, scrubbing off.
func DefaultConfig() Config {
	return Config{Enabled: true}
}

// DefaultScrubConfig returns the enabled default scrub policy.
func DefaultScrubConfig() ScrubConfig {
	return ScrubConfig{
		Enabled:       true,
		RateBytesPerS: 4 << 20,
		Window:        600 * sim.Second,
	}
}

// Normalized fills an enabled scrubber's zero fields with defaults.
func (c Config) Normalized() Config {
	if c.Scrub.Enabled {
		sd := DefaultScrubConfig()
		if c.Scrub.RateBytesPerS <= 0 {
			c.Scrub.RateBytesPerS = sd.RateBytesPerS
		}
		if c.Scrub.Window <= 0 {
			c.Scrub.Window = sd.Window
		}
	}
	return c
}

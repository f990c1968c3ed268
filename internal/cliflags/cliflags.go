// Package cliflags defines the PFS-configuration flag groups shared by the
// iochar and stress commands — the cache, data-integrity/reliability, and
// collective-I/O knobs — so both binaries register identical flags with
// identical help text and wire them into a pfs.Config the same way.
package cliflags

import (
	"flag"
	"fmt"
	"runtime"

	"repro/internal/burst"
	"repro/internal/cache"
	"repro/internal/collective"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/ionode"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Cache bundles the I/O-node block-cache flags.
type Cache struct {
	On          *bool
	MB          *float64
	Prefetch    *bool
	FlushOnFail *bool // nil unless AddFlushOnFail was called
}

// AddCache registers -cache, -cache-mb and -prefetch on fs.
func AddCache(fs *flag.FlagSet) *Cache {
	return &Cache{
		On:       fs.Bool("cache", false, "attach a block cache with pattern-driven prefetch to every I/O node"),
		MB:       fs.Float64("cache-mb", 8, "per-node cache capacity in MB (with -cache)"),
		Prefetch: fs.Bool("prefetch", true, "enable pattern-driven prefetch (with -cache)"),
	}
}

// AddFlushOnFail additionally registers -flush-on-fail (the stress command's
// outage-drain knob).
func (c *Cache) AddFlushOnFail(fs *flag.FlagSet) {
	c.FlushOnFail = fs.Bool("flush-on-fail", false, "drain dirty cache blocks synchronously when a node fails instead of losing them")
}

// Apply wires the parsed cache flags into cfg.
func (c *Cache) Apply(cfg *pfs.Config) {
	if !*c.On {
		return
	}
	ccfg := cache.DefaultConfig()
	ccfg.CapacityBytes = int64(*c.MB * float64(1<<20))
	ccfg.Prefetch = *c.Prefetch
	if c.FlushOnFail != nil {
		ccfg.FlushOnFail = *c.FlushOnFail
	}
	cfg.Cache = ccfg
}

// Reliability bundles the corruption-injection, checksum-layer, and client
// reliability flags.
type Reliability struct {
	Corrupt  *string
	Scrub    *bool
	Deadline *float64
	Retries  *int
}

// AddReliability registers -corrupt, -scrub, -deadline and -retries on fs.
func AddReliability(fs *flag.FlagSet) *Reliability {
	return &Reliability{
		Corrupt:  fs.String("corrupt", "", "inject silent data corruption: comma-separated classes (bit-rot, torn-write, misdirected-write) or 'all'; enables the checksum layer"),
		Scrub:    fs.Bool("scrub", false, "run the background scrubber on every I/O node (enables the checksum layer)"),
		Deadline: fs.Float64("deadline", 0, "per-request deadline in seconds (enables the client reliability layer)"),
		Retries:  fs.Int("retries", 0, "max client retries after a corrupt read, >= 1 (0 uses the reliability layer's default)"),
	}
}

// Apply wires the checksum layer (when corruption or scrubbing is requested)
// and the client reliability layer (when corruption, a deadline, or retries
// are requested) into cfg. window bounds the scrubber.
func (r *Reliability) Apply(cfg *pfs.Config, window sim.Time) {
	if *r.Corrupt != "" || *r.Scrub {
		icfg := integrity.DefaultConfig()
		if *r.Scrub {
			icfg.Scrub = integrity.DefaultScrubConfig()
			icfg.Scrub.Window = window
		}
		cfg.Integrity = icfg
	}
	if *r.Corrupt != "" || *r.Deadline > 0 || *r.Retries > 0 {
		rel := pfs.DefaultReliabilityConfig()
		if *r.Deadline > 0 {
			rel.Deadline = sim.FromSeconds(*r.Deadline)
		}
		if *r.Retries > 0 {
			rel.MaxRetries = *r.Retries
		}
		cfg.Reliability = rel
	}
}

// CorruptionPlan parses -corrupt into a fault plan bounded by window and
// arms the replica path in cfg (unrepairable classes need reroute-on-read so
// corrupt reads don't kill the run). ok is false when -corrupt was not given.
func (r *Reliability) CorruptionPlan(cfg *pfs.Config, window sim.Time) (cp fault.CorruptionPlan, ok bool, err error) {
	if *r.Corrupt == "" {
		return fault.CorruptionPlan{}, false, nil
	}
	cp, err = fault.ParseCorruptionClasses(*r.Corrupt, window)
	if err != nil {
		return fault.CorruptionPlan{}, false, err
	}
	if !cfg.Failover.Enabled {
		cfg.Failover = pfs.DefaultFailoverConfig()
	}
	cfg.Failover.Replicate = true
	return cp, true, nil
}

// Replication bundles the N-way replication and repair-daemon flags.
type Replication struct {
	Factor        *int
	PlacementSeed *uint64
	ReadPolicy    *string
	Repair        *bool
	RepairMBs     *float64
	RepairGiveUp  *float64
}

// AddReplication registers -rf, -placement-seed, -read-policy, -repair,
// -repair-mb-s and -repair-give-up on fs.
func AddReplication(fs *flag.FlagSet) *Replication {
	return &Replication{
		Factor:        fs.Int("rf", 0, "replication factor 1..4, zone-aware placement (0 defers to -replicate; needs failover)"),
		PlacementSeed: fs.Uint64("placement-seed", 0, "seed perturbing the replica ring's within-zone node order (0 = index order)"),
		ReadPolicy:    fs.String("read-policy", "", "replicated read policy: primary-first (default), any-replica, quorum"),
		Repair:        fs.Bool("repair", false, "run the background repair daemon restoring redundancy after outages (needs replication)"),
		RepairMBs:     fs.Float64("repair-mb-s", 32, "repair daemon bandwidth throttle in MB/s, 0 = unthrottled (with -repair)"),
		RepairGiveUp:  fs.Float64("repair-give-up", 0, "abandon a repair entry still queued after this many seconds, 0 = never (with -repair)"),
	}
}

// Apply wires the parsed replication flags into cfg.
func (r *Replication) Apply(cfg *pfs.Config) error {
	if *r.Factor < 0 || *r.Factor > pfs.MaxReplicationFactor {
		return fmt.Errorf("-rf %d: want 0 (legacy) or 1..%d", *r.Factor, pfs.MaxReplicationFactor)
	}
	switch *r.ReadPolicy {
	case "", pfs.ReadPrimaryFirst, pfs.ReadAnyReplica, pfs.ReadQuorum:
	default:
		return fmt.Errorf("-read-policy %q: want %s, %s or %s",
			*r.ReadPolicy, pfs.ReadPrimaryFirst, pfs.ReadAnyReplica, pfs.ReadQuorum)
	}
	cfg.Replication.Factor = *r.Factor
	cfg.Replication.Seed = *r.PlacementSeed
	cfg.Replication.ReadPolicy = *r.ReadPolicy
	if *r.Repair {
		if *r.RepairMBs < 0 {
			return fmt.Errorf("-repair-mb-s %g is negative", *r.RepairMBs)
		}
		if *r.RepairGiveUp < 0 {
			return fmt.Errorf("-repair-give-up %g is negative", *r.RepairGiveUp)
		}
		cfg.Replication.Repair = pfs.RepairConfig{
			Enabled:            true,
			BandwidthBytesPerS: *r.RepairMBs * float64(1<<20),
			GiveUp:             sim.FromSeconds(*r.RepairGiveUp),
		}
	}
	if *r.Factor > 1 && !cfg.Failover.Enabled {
		cfg.Failover = pfs.DefaultFailoverConfig()
	}
	return nil
}

// Burst bundles the host-side burst-log flags.
type Burst struct {
	On       *bool
	MB       *float64
	DrainMBs *float64
	Compress *float64
}

// AddBurst registers -burst, -burst-mb, -burst-drain and -compress on fs.
func AddBurst(fs *flag.FlagSet) *Burst {
	return &Burst{
		On:       fs.Bool("burst", false, "absorb checkpoint and M_LOG writes into per-compute-node burst logs, drained to the PFS asynchronously"),
		MB:       fs.Float64("burst-mb", 64, "per-node burst-log capacity in MB (with -burst)"),
		DrainMBs: fs.Float64("burst-drain", 0, "per-node drain bandwidth cap in MB/s, 0 = PFS-limited (with -burst)"),
		Compress: fs.Float64("compress", 1.8, "drain-stage compression ratio, logical/wire; 1 disables the stage (with -burst)"),
	}
}

// Config builds the burst tier configuration the parsed flags describe; the
// zero (disabled) Config when -burst was not given.
func (b *Burst) Config() (burst.Config, error) {
	if !*b.On {
		return burst.Config{}, nil
	}
	cfg := burst.DefaultConfig()
	cfg.CapacityBytes = int64(*b.MB * float64(1<<20))
	cfg.DrainBWBytesPerS = *b.DrainMBs * float64(1<<20)
	if *b.Compress <= 1 {
		cfg.Compress = burst.CompressConfig{}
	} else {
		cfg.Compress.Ratio = *b.Compress
	}
	if err := cfg.Validate(); err != nil {
		return burst.Config{}, err
	}
	return cfg, nil
}

// Collective bundles the two-phase aggregation and disk-scheduling flags.
type Collective struct {
	On          *bool
	Aggregators *int
	Sched       *string
}

// AddCollective registers -collective, -aggregators and -sched on fs.
func AddCollective(fs *flag.FlagSet) *Collective {
	return &Collective{
		On:          fs.Bool("collective", false, "aggregate each M_RECORD/M_SYNC round's requests into stripe-aligned bulk transfers (two-phase collective I/O)"),
		Aggregators: fs.Int("aggregators", 0, "aggregator nodes per collective round (0 = one per I/O node; with -collective)"),
		Sched:       fs.String("sched", "", "I/O-node disk scheduling policy: fcfs, cscan, sstf, random (empty = legacy FIFO queue)"),
	}
}

// Apply wires the parsed collective and scheduling flags into cfg.
func (c *Collective) Apply(cfg *pfs.Config) error {
	if *c.On {
		cfg.Collective = collective.Config{
			Enabled:     true,
			Aggregators: *c.Aggregators,
		}
	} else if *c.Aggregators != 0 {
		return fmt.Errorf("-aggregators needs -collective")
	}
	if *c.Sched != "" {
		cfg.Sched = ionode.SchedConfig{Policy: *c.Sched, Window: ionode.DefaultWindow}
		if err := cfg.Sched.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Shards bundles the sharded-engine flag every binary that can run a
// multi-cell fleet shares. Results are byte-identical at any setting — the
// flag only bounds how many cells execute concurrently.
type Shards struct {
	N *int
}

// AddShards registers -shards on fs.
func AddShards(fs *flag.FlagSet) *Shards {
	return &Shards{
		N: fs.Int("shards", 0, "fleet cells executing concurrently on the sharded engine: 0 = GOMAXPROCS, 1 = the serial oracle (results identical at any setting)"),
	}
}

// Count returns the raw flag value (0 = auto), the form core.FleetOptions
// takes.
func (s *Shards) Count() int { return *s.N }

// Resolve returns the effective worker count: GOMAXPROCS when the flag is 0
// or negative.
func (s *Shards) Resolve() int {
	if *s.N < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return *s.N
}

// Scenario bundles the declarative scenario-file flag: both commands load
// scenario files through internal/scenario the same way, and the stress
// command's legacy -config chaos files ride the same loader.
type Scenario struct {
	File *string
}

// AddScenario registers a scenario-file flag under the given name (iochar
// uses -scenario; a file there overrides the app/feature flags).
func AddScenario(fs *flag.FlagSet, name string) *Scenario {
	return &Scenario{
		File: fs.String(name, "", "declarative scenario file (YAML/JSON; overrides app, feature and chaos flags)"),
	}
}

// Load parses the scenario file. ok is false when the flag was not given.
func (s *Scenario) Load() (sc *scenario.Scenario, ok bool, err error) {
	if *s.File == "" {
		return nil, false, nil
	}
	sc, err = scenario.Load(*s.File)
	if err != nil {
		return nil, false, err
	}
	return sc, true, nil
}

// LoadChaosPlan loads a legacy chaos-only file (the stress command's
// deprecated -config format — the scenario DSL's chaos section at top level)
// and converts it to a fault plan.
func LoadChaosPlan(path string) (fault.Plan, error) {
	c, err := scenario.LoadChaos(path)
	if err != nil {
		return fault.Plan{}, err
	}
	return c.Plan(nil)
}

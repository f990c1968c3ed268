// Package cliflags translates the command-line flags iochar and stress share
// into a scenario.Scenario. The flags register here with their names,
// defaults and help text; Study.Scenario folds the parsed values into the
// scenario's workload, features, chaos and run sections and validates it.
// What a feature means is decided in one place, scenario.Build, so this
// package imports no PFS, cache, burst, integrity, collective or I/O-node
// package.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/scenario"
)

// Study holds one command's study-shaping flags. Each command binds its own
// flags (their help text differs between the commands) straight into Sc or
// into the exported fields; NewStudy registers the feature flags both share.
type Study struct {
	// Sc receives the flags that map one-to-one onto a scenario field.
	Sc scenario.Scenario

	// Small selects the reduced-scale configuration (-small).
	Small bool

	// Failover is stress's -failover. iochar has none: outages, replication
	// and corruption imply failover there.
	Failover bool

	// MTBF and Outage are iochar's Poisson I/O-node outage process (-mtbf,
	// -outage).
	MTBF, Outage float64

	fs *flag.FlagSet

	cache, prefetch, flushOnFail bool
	cacheMB                      float64

	collective  bool
	aggregators int
	sched       string

	burst                         bool
	burstMB, burstDrain, compress float64

	corrupt  string
	scrub    bool
	deadline float64
	retries  int

	rf                      int
	placementSeed           uint64
	readPolicy              string
	repair                  bool
	repairMBs, repairGiveUp float64
}

// NewStudy registers the cache, collective, burst, reliability and
// replication flags on fs.
func NewStudy(fs *flag.FlagSet) *Study {
	s := &Study{fs: fs}
	fs.BoolVar(&s.cache, "cache", false, "attach a block cache with pattern-driven prefetch to every I/O node")
	fs.Float64Var(&s.cacheMB, "cache-mb", 8, "per-node cache capacity in MB (with -cache)")
	fs.BoolVar(&s.prefetch, "prefetch", true, "enable pattern-driven prefetch (with -cache)")

	fs.BoolVar(&s.collective, "collective", false, "aggregate each M_RECORD/M_SYNC round's requests into stripe-aligned bulk transfers (two-phase collective I/O)")
	fs.IntVar(&s.aggregators, "aggregators", 0, "aggregator nodes per collective round (0 = one per I/O node; with -collective)")
	fs.StringVar(&s.sched, "sched", "", "I/O-node disk scheduling policy: fcfs, cscan, sstf, random (empty = legacy FIFO queue)")

	fs.BoolVar(&s.burst, "burst", false, "absorb checkpoint and M_LOG writes into per-compute-node burst logs, drained to the PFS asynchronously")
	fs.Float64Var(&s.burstMB, "burst-mb", 64, "per-node burst-log capacity in MB (with -burst)")
	fs.Float64Var(&s.burstDrain, "burst-drain", 0, "per-node drain bandwidth cap in MB/s, 0 = PFS-limited (with -burst)")
	fs.Float64Var(&s.compress, "compress", 1.8, "drain-stage compression ratio, logical/wire; 1 disables the stage (with -burst)")

	fs.StringVar(&s.corrupt, "corrupt", "", "inject silent data corruption: comma-separated classes (bit-rot, torn-write, misdirected-write) or 'all'; enables the checksum layer")
	fs.BoolVar(&s.scrub, "scrub", false, "run the background scrubber on every I/O node (enables the checksum layer)")
	fs.Float64Var(&s.deadline, "deadline", 0, "per-request deadline in seconds (enables the client reliability layer)")
	fs.IntVar(&s.retries, "retries", 0, "max client retries after a corrupt read, >= 1 (0 uses the reliability layer's default)")

	fs.IntVar(&s.rf, "rf", 0, "replication factor 1..4 with zone-aware placement: 0 keeps the default mirror (2) when failover is on, 1 turns it off")
	fs.Uint64Var(&s.placementSeed, "placement-seed", 0, "seed perturbing the replica ring's within-zone node order (0 = index order)")
	fs.StringVar(&s.readPolicy, "read-policy", "", "replicated read policy: primary-first (default), any-replica, quorum")
	fs.BoolVar(&s.repair, "repair", false, "run the background repair daemon restoring redundancy after outages (needs replication)")
	fs.Float64Var(&s.repairMBs, "repair-mb-s", 32, "repair daemon bandwidth throttle in MB/s, 0 = unthrottled (with -repair)")
	fs.Float64Var(&s.repairGiveUp, "repair-give-up", 0, "abandon a repair entry still queued after this many seconds, 0 = never (with -repair)")
	return s
}

// AddFlushOnFail additionally registers -flush-on-fail (the stress command's
// outage-drain knob).
func (s *Study) AddFlushOnFail() {
	s.fs.BoolVar(&s.flushOnFail, "flush-on-fail", false, "drain dirty cache blocks synchronously when a node fails instead of losing them")
}

// AddShards registers -shards on fs and returns its value: how many fleet
// cells execute concurrently (0 = GOMAXPROCS). Results are byte-identical at
// any setting.
func AddShards(fs *flag.FlagSet) *int {
	return fs.Int("shards", 0, "fleet cells run concurrently: 0 = GOMAXPROCS, 1 = one cell after another (results identical at any setting)")
}

// Scenario folds the parsed flags into a scenario and validates it. Errors
// name the flag, not the scenario field.
func (s *Study) Scenario() (*scenario.Scenario, error) {
	// A dependent flag given without its switch would be silently ignored.
	set := map[string]bool{}
	s.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, d := range []struct {
		flag, needs string
		on          bool
	}{
		{"cache-mb", "cache", s.cache}, {"prefetch", "cache", s.cache}, {"flush-on-fail", "cache", s.cache},
		{"burst-mb", "burst", s.burst}, {"burst-drain", "burst", s.burst}, {"compress", "burst", s.burst},
		{"repair-mb-s", "repair", s.repair}, {"repair-give-up", "repair", s.repair},
	} {
		if set[d.flag] && !d.on {
			return nil, fmt.Errorf("-%s needs -%s", d.flag, d.needs)
		}
	}
	// The scenario reads 0 in these fields as "use the default"; on the
	// command line a 0 would silently become that default.
	for _, name := range []string{"cache-mb", "burst-mb", "chaos-window", "ckpt-bytes"} {
		if f := s.fs.Lookup(name); f != nil && f.Value.String() == "0" {
			return nil, fmt.Errorf("-%s 0: want > 0", name)
		}
	}
	// The translation below would clamp or pass these on unchecked.
	if s.Outage < 0 {
		return nil, fmt.Errorf("-outage %g: want >= 0", s.Outage)
	}
	if s.compress < 0 {
		return nil, fmt.Errorf("-compress %g: want >= 0", s.compress)
	}

	sc := s.Sc
	sc.Name = s.fs.Name()
	sc.Workload.Scale = "paper"
	if s.Small {
		sc.Workload.Scale = "small"
	}

	if s.MTBF != 0 {
		sc.Chaos.Exps = append(sc.Chaos.Exps, scenario.ChaosExp{
			Kind: "ionode-outage", MeanBetweenS: s.MTBF, EndS: sc.Chaos.WindowS,
			Node: scenario.NodeRef(fault.AnyNode), DurationS: s.Outage,
		})
	}
	if s.corrupt != "" {
		sc.Chaos.Corrupt = &scenario.Corrupt{Classes: s.corrupt}
	}

	f := &sc.Features
	if s.cache {
		f.Cache = &scenario.CacheFeature{Enabled: true, MB: s.cacheMB, Prefetch: &s.prefetch, FlushOnFail: s.flushOnFail}
	}
	if s.collective || s.aggregators != 0 {
		f.Collective = &scenario.CollectiveFeature{Enabled: s.collective, Aggregators: s.aggregators}
	}
	f.Sched = s.sched
	if s.burst {
		// Any ratio up to 1 disables the compression stage.
		f.Burst = &scenario.BurstFeature{Enabled: true, MB: s.burstMB, DrainMBs: s.burstDrain, Compress: max(s.compress, 1)}
	}
	if s.scrub {
		f.Integrity = &scenario.IntegrityFeature{Enabled: true, Scrub: true}
	}
	if s.deadline != 0 || s.retries != 0 {
		f.Reliability = &scenario.ReliabilityFeature{Enabled: true, DeadlineS: s.deadline, Retries: s.retries}
	}
	// Outages and corruption need reroute-to-replica to be survivable, and
	// a replication factor above 1 needs failover to mean anything. With
	// failover on, an unset -rf keeps the default mirror.
	chaos := s.MTBF > 0 || s.corrupt != ""
	enabled := s.Failover || chaos || s.rf > 1
	factor := s.rf
	if factor == 0 && enabled {
		factor = 2
	}
	f.Failover = &scenario.FailoverFeature{
		Enabled:       enabled,
		Factor:        factor,
		PlacementSeed: s.placementSeed,
		ReadPolicy:    s.readPolicy,
	}
	if s.repair {
		f.Failover.Repair = &scenario.RepairFeature{Enabled: true, BandwidthMBs: &s.repairMBs, GiveUpS: s.repairGiveUp}
	}

	if err := sc.Validate(); err != nil {
		return nil, errors.New(s.flagNames().Replace(err.Error()))
	}
	return &sc, nil
}

// flagNames rewrites the scenario fields in a validation error into the
// flags that set them. A field precedes the section that contains it, so the
// longer match wins.
func (s *Study) flagNames() *strings.Replacer {
	failover := "-failover"
	if s.fs.Lookup("failover") == nil {
		failover = "failover (on with -rf >= 2, -mtbf or -corrupt)"
	}
	return strings.NewReplacer(
		"workload.app", "-app",
		"workload.policy", "-policy",
		"workload.window_s", "-window",
		"features.cache.mb", "-cache-mb",
		"features.collective.enabled", "-collective",
		"features.collective.aggregators", "-aggregators",
		"features.sched", "-sched",
		"features.burst.mb", "-burst-mb",
		"features.burst.drain_mb_s", "-burst-drain",
		"features.burst", "-burst",
		"features.reliability.deadline_s", "-deadline",
		"features.reliability.retries", "-retries",
		"features.failover.enabled", failover,
		"features.failover.factor", "-rf",
		"features.failover.placement_seed", "-placement-seed",
		"features.failover.read_policy", "-read-policy",
		"features.failover.repair.bandwidth_mb_s", "-repair-mb-s",
		"features.failover.repair.give_up_s", "-repair-give-up",
		"features.failover.repair", "-repair",
		"chaos.window_s", "-chaos-window",
		"chaos.exps[0]: mean_between_s", "-mtbf",
		"chaos.corrupt", "-corrupt",
		"run.ckpt_interval", "-ckpt-interval",
		"run.ckpt_bytes", "-ckpt-bytes",
		"run.restart_cost_s", "-restart-cost",
		"run.max_attempts", "-max-attempts",
	)
}

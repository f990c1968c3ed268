package scenario

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ionode"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scales, policies and patterns the workload/fleet sections accept; the
// apps are core's registry.
var (
	validScales   = []string{"", "small", "paper"}
	validPolicies = []string{"", "none", "ppfs", "adaptive"}
	validPatterns = []string{"", "instant", "linear", "exponential", "wave"}
	validExpected = []string{"", "ok", "degraded", "failed"}
)

func oneOf(v string, allowed []string) bool {
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

// Validate checks the scenario's internal consistency — everything knowable
// without running it. Cross-checks that need the expanded fleet (zone-outage
// membership) happen in Build.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario needs a name")
	}
	if err := s.validateApp(); err != nil {
		return err
	}
	if !oneOf(s.Workload.Scale, validScales) {
		return fmt.Errorf("workload.scale %q: want small or paper", s.Workload.Scale)
	}
	if !oneOf(s.Workload.Policy, validPolicies) {
		return fmt.Errorf("workload.policy %q: want none, ppfs or adaptive", s.Workload.Policy)
	}
	if s.Workload.WindowS < 0 {
		return fmt.Errorf("workload.window_s %g is negative", s.Workload.WindowS)
	}
	if err := belowTick("workload.window_s", s.Workload.WindowS); err != nil {
		return err
	}
	if err := s.validateFleetGen(); err != nil {
		return err
	}
	if err := s.validateFeatures(); err != nil {
		return err
	}
	if err := s.Chaos.validate(); err != nil {
		return err
	}
	if err := s.validateRun(); err != nil {
		return err
	}
	return s.validateAssertions()
}

// synthetic is the workload.app value that runs workload.synthetic.
const synthetic = "synthetic"

func (s *Scenario) validateApp() error {
	w := s.Workload
	if w.App != synthetic {
		if _, err := core.ParseApp(w.App); err != nil {
			return fmt.Errorf("workload.app %w (or %s)", err, synthetic)
		}
		if w.Synthetic != nil {
			return fmt.Errorf("workload.synthetic needs workload.app: %s", synthetic)
		}
		return nil
	}
	if w.Synthetic == nil {
		return fmt.Errorf("workload.app %s needs a workload.synthetic section", synthetic)
	}
	if w.Scale == "paper" {
		return fmt.Errorf("workload.scale paper: the synthetic workload has no paper scale")
	}
	if _, err := w.Synthetic.config(); err != nil {
		return fmt.Errorf("workload.synthetic: %v", err)
	}
	return nil
}

// config returns the workload configuration the section describes.
func (sy *Synthetic) config() (workload.SyntheticConfig, error) {
	cfg := workload.SyntheticConfig{
		Nodes: sy.Nodes, RecordBytes: sy.RecordBytes, Records: sy.Records,
		Read: sy.Read, Random: sy.Random, Seed: sy.Seed,
		FileBytes: sy.FileBytes, Barrier: sy.Barrier,
	}
	for m := iotrace.ModeUnix; m <= iotrace.ModeAsync; m++ {
		if m.String() == sy.Mode {
			cfg.Mode = m
		}
	}
	if cfg.Mode == iotrace.ModeNone {
		return cfg, fmt.Errorf("mode %q: want M_UNIX, M_LOG, M_SYNC, M_RECORD, M_GLOBAL or M_ASYNC", sy.Mode)
	}
	if sy.FileBytes < 0 {
		return cfg, fmt.Errorf("file_bytes %d is negative", sy.FileBytes)
	}
	return cfg, cfg.Validate()
}

func (s *Scenario) validateFleetGen() error {
	fg := s.FleetGen
	if fg == nil {
		return nil
	}
	if fg.ComputeNodes < 0 {
		return fmt.Errorf("fleet_gen.compute_nodes %d is negative", fg.ComputeNodes)
	}
	if fg.IONodes < 0 {
		return fmt.Errorf("fleet_gen.io_nodes %d is negative", fg.IONodes)
	}
	if fg.StripeKB < 0 {
		return fmt.Errorf("fleet_gen.stripe_kb %g is negative", fg.StripeKB)
	}
	if fg.Cells < 0 {
		return fmt.Errorf("fleet_gen.cells %d is negative", fg.Cells)
	}
	if fg.StaggerS < 0 {
		return fmt.Errorf("fleet_gen.stagger_s %g is negative", fg.StaggerS)
	}
	if fg.StaggerS > 0 && fg.Cells <= 1 {
		return fmt.Errorf("fleet_gen.stagger_s needs cells > 1")
	}
	fixed := 0
	names := map[string]bool{}
	for i, t := range fg.Templates {
		where := fmt.Sprintf("fleet_gen.templates[%d]", i)
		if t.Name == "" {
			return fmt.Errorf("%s needs a name", where)
		}
		if names[t.Name] {
			return fmt.Errorf("%s: duplicate template name %q", where, t.Name)
		}
		names[t.Name] = true
		if t.Weight < 0 {
			return fmt.Errorf("%s (%s): weight %g is negative", where, t.Name, t.Weight)
		}
		if t.Count < 0 {
			return fmt.Errorf("%s (%s): count %d is negative", where, t.Name, t.Count)
		}
		fixed += t.Count
		if t.DiskMBs < 0 || t.PositionMs < 0 || t.DiskStreams < 0 {
			return fmt.Errorf("%s (%s): disk parameters must be >= 0", where, t.Name)
		}
		if t.CacheMB < 0 {
			return fmt.Errorf("%s (%s): cache_mb %g is negative", where, t.Name, t.CacheMB)
		}
		if t.CacheMB > 0 && !s.cacheEnabled() {
			return fmt.Errorf("%s (%s): cache_mb set but features.cache is not enabled", where, t.Name)
		}
		if t.BurstMB < 0 {
			return fmt.Errorf("%s (%s): burst_mb %g is negative", where, t.Name, t.BurstMB)
		}
		if t.BurstMB > 0 && !s.burstEnabled() {
			return fmt.Errorf("%s (%s): burst_mb set but features.burst is not enabled", where, t.Name)
		}
		if t.Zone < 0 {
			return fmt.Errorf("%s (%s): zone %d is negative", where, t.Name, t.Zone)
		}
	}
	if ion := s.ioNodes(); fixed > ion {
		return fmt.Errorf("fleet_gen.templates pin %d nodes by count but the fleet has %d I/O nodes", fixed, ion)
	}
	if st := fg.Startup; st != nil {
		if !oneOf(st.Pattern, validPatterns) {
			return fmt.Errorf("fleet_gen.startup.pattern %q: want instant, linear, exponential or wave", st.Pattern)
		}
		if st.OverS < 0 {
			return fmt.Errorf("fleet_gen.startup.over_s %g is negative", st.OverS)
		}
		if st.Waves < 0 {
			return fmt.Errorf("fleet_gen.startup.waves %d is negative", st.Waves)
		}
		if st.Waves > 0 && st.Pattern != "wave" {
			return fmt.Errorf("fleet_gen.startup.waves needs pattern: wave")
		}
		if st.JitterFrac < 0 || st.JitterFrac >= 1 {
			return fmt.Errorf("fleet_gen.startup.jitter_frac %g: want [0, 1)", st.JitterFrac)
		}
	}
	return nil
}

func (s *Scenario) validateFeatures() error {
	f := s.Features
	if c := f.Cache; c != nil && c.Enabled && c.MB < 0 {
		return fmt.Errorf("features.cache.mb %g is negative", c.MB)
	}
	if co := f.Collective; co != nil {
		if !co.Enabled && co.Aggregators != 0 {
			return fmt.Errorf("features.collective.aggregators needs features.collective.enabled")
		}
		if co.Aggregators < 0 {
			return fmt.Errorf("features.collective.aggregators %d is negative", co.Aggregators)
		}
	}
	if f.Sched != "" {
		sc := ionode.SchedConfig{Policy: f.Sched, Window: ionode.DefaultWindow}
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("features.sched: %v", err)
		}
	}
	if b := f.Burst; b != nil && b.Enabled {
		if b.MB < 0 {
			return fmt.Errorf("features.burst.mb %g is negative", b.MB)
		}
		if b.DrainMBs < 0 {
			return fmt.Errorf("features.burst.drain_mb_s %g is negative", b.DrainMBs)
		}
		if b.Compress < 0 {
			return fmt.Errorf("features.burst.compress %g is negative", b.Compress)
		}
		if s.policy() != "none" {
			return fmt.Errorf("features.burst and workload.policy %q are mutually exclusive (both are client-side layers over the same seam)", s.policy())
		}
	}
	if r := f.Reliability; r != nil && r.Enabled {
		if r.DeadlineS < 0 {
			return fmt.Errorf("features.reliability.deadline_s %g is negative", r.DeadlineS)
		}
		if err := belowTick("features.reliability.deadline_s", r.DeadlineS); err != nil {
			return err
		}
		if r.Retries < 0 {
			return fmt.Errorf("features.reliability.retries %d is negative", r.Retries)
		}
	}
	if fo := f.Failover; fo != nil {
		if fo.Factor < 0 || fo.Factor > pfs.MaxReplicationFactor {
			return fmt.Errorf("features.failover.factor %d: want 1..%d", fo.Factor, pfs.MaxReplicationFactor)
		}
		switch fo.ReadPolicy {
		case "", pfs.ReadPrimaryFirst, pfs.ReadAnyReplica, pfs.ReadQuorum:
		default:
			return fmt.Errorf("features.failover.read_policy %q: want %s, %s or %s",
				fo.ReadPolicy, pfs.ReadPrimaryFirst, pfs.ReadAnyReplica, pfs.ReadQuorum)
		}
		if !fo.Enabled {
			field := ""
			switch {
			case fo.Factor != 0:
				field = "factor"
			case fo.PlacementSeed != 0:
				field = "placement_seed"
			case fo.ReadPolicy != "":
				field = "read_policy"
			case fo.Repair != nil:
				field = "repair"
			}
			if field != "" {
				return fmt.Errorf("features.failover.%s needs features.failover.enabled", field)
			}
		}
		if rp := fo.Repair; rp != nil {
			if !rp.Enabled && (rp.BandwidthMBs != nil || rp.GiveUpS != 0) {
				return fmt.Errorf("features.failover.repair: bandwidth_mb_s and give_up_s need enabled: true")
			}
			if rp.BandwidthMBs != nil && *rp.BandwidthMBs < 0 {
				return fmt.Errorf("features.failover.repair.bandwidth_mb_s %g is negative", *rp.BandwidthMBs)
			}
			if rp.GiveUpS < 0 {
				return fmt.Errorf("features.failover.repair.give_up_s %g is negative", rp.GiveUpS)
			}
			if err := belowTick("features.failover.repair.give_up_s", rp.GiveUpS); err != nil {
				return err
			}
			if rp.Enabled && fo.Factor < 2 {
				return fmt.Errorf("features.failover.repair needs replication: features.failover.factor >= 2")
			}
		}
	}
	return nil
}

// belowTick rejects a positive seconds value that the simulated clock rounds
// to 0 µs: the build would read it as the field's 0, which means the default
// or "off".
func belowTick(field string, sec float64) error {
	if sec > 0 && sim.FromSeconds(sec) == 0 {
		return fmt.Errorf("%s %g is below the clock's 1 µs resolution", field, sec)
	}
	return nil
}

func (c Chaos) validate() error {
	if c.WindowS < 0 {
		return fmt.Errorf("chaos.window_s %g is negative", c.WindowS)
	}
	if err := belowTick("chaos.window_s", c.WindowS); err != nil {
		return err
	}
	for i, e := range c.Events {
		if _, err := fault.ParseKind(e.Kind); err != nil {
			return fmt.Errorf("chaos.events[%d]: %v", i, err)
		}
		if e.AtS < 0 || e.DurationS < 0 {
			return fmt.Errorf("chaos.events[%d]: times must be >= 0", i)
		}
	}
	for i, x := range c.Exps {
		if _, err := fault.ParseKind(x.Kind); err != nil {
			return fmt.Errorf("chaos.exps[%d]: %v", i, err)
		}
		if x.MeanBetweenS <= 0 {
			return fmt.Errorf("chaos.exps[%d]: mean_between_s must be > 0", i)
		}
		if x.StartS < 0 || x.DurationS < 0 {
			return fmt.Errorf("chaos.exps[%d]: times must be >= 0", i)
		}
		if x.EndS <= x.StartS {
			return fmt.Errorf("chaos.exps[%d]: end_s %g must be after start_s %g", i, x.EndS, x.StartS)
		}
	}
	for i, ca := range c.Cascades {
		if _, err := fault.ParseKind(ca.Kind); err != nil {
			return fmt.Errorf("chaos.cascades[%d]: %v", i, err)
		}
		if ca.Nodes < 1 {
			return fmt.Errorf("chaos.cascades[%d]: nodes %d must be >= 1", i, ca.Nodes)
		}
		if ca.AtS < 0 || ca.SpacingS < 0 || ca.DurationS < 0 {
			return fmt.Errorf("chaos.cascades[%d]: times must be >= 0", i)
		}
	}
	for i, z := range c.ZoneOutages {
		if z.Zone < 0 {
			return fmt.Errorf("chaos.zone_outages[%d]: zone %d is negative", i, z.Zone)
		}
		if z.DurationS <= 0 {
			return fmt.Errorf("chaos.zone_outages[%d]: duration_s must be > 0", i)
		}
		if z.AtS < 0 || z.SpacingS < 0 {
			return fmt.Errorf("chaos.zone_outages[%d]: times must be >= 0", i)
		}
	}
	if c.Corrupt != nil {
		if _, err := fault.ParseCorruptionClasses(c.Corrupt.Classes, sim.Second); err != nil {
			return fmt.Errorf("chaos.corrupt: %v", err)
		}
	}
	return nil
}

func (s *Scenario) validateRun() error {
	r := s.Run
	if r.CkptInterval != nil && *r.CkptInterval < 0 {
		return fmt.Errorf("run.ckpt_interval %d is negative", *r.CkptInterval)
	}
	if s.ckptInterval() > 0 && !s.checkpoints() {
		return fmt.Errorf("run.ckpt_interval: %s does not support checkpointing (set it to 0)", s.Workload.App)
	}
	if s.cells() > 1 {
		// A multi-cell fleet runs one attempt per cell; the
		// checkpoint/restart loop is a single-machine driver.
		if r.CkptInterval != nil && *r.CkptInterval > 0 {
			return fmt.Errorf("run.ckpt_interval: fleet_gen.cells > 1 runs a single attempt per cell (set ckpt_interval: 0)")
		}
		if r.MaxAttempts > 1 {
			return fmt.Errorf("run.max_attempts: fleet_gen.cells > 1 runs a single attempt per cell")
		}
	}
	if r.CkptBytes < 0 {
		return fmt.Errorf("run.ckpt_bytes %d is negative", r.CkptBytes)
	}
	if r.RestartCostS != nil && *r.RestartCostS < 0 {
		return fmt.Errorf("run.restart_cost_s %g is negative", *r.RestartCostS)
	}
	if r.MaxAttempts < 0 {
		return fmt.Errorf("run.max_attempts %d is negative", r.MaxAttempts)
	}
	return nil
}

func (s *Scenario) validateAssertions() error {
	a := s.Assertions
	if a == nil {
		return nil
	}
	if !oneOf(a.Expected, validExpected) {
		return fmt.Errorf("assertions.expected %q: want ok, degraded or failed", a.Expected)
	}
	if a.MaxMakespanS < 0 || a.MinMakespanS < 0 {
		return fmt.Errorf("assertions: makespan bounds must be >= 0")
	}
	if a.MaxMakespanS > 0 && a.MinMakespanS > a.MaxMakespanS {
		return fmt.Errorf("assertions: min_makespan_s %g exceeds max_makespan_s %g", a.MinMakespanS, a.MaxMakespanS)
	}
	if a.MaxP95ReadMs < 0 {
		return fmt.Errorf("assertions.max_p95_read_ms %g is negative", a.MaxP95ReadMs)
	}
	if a.MinCacheHitRatio < 0 || a.MinCacheHitRatio > 1 {
		return fmt.Errorf("assertions.min_cache_hit_ratio %g: want [0, 1]", a.MinCacheHitRatio)
	}
	if a.MinCacheHitRatio > 0 && !s.cacheEnabled() {
		return fmt.Errorf("assertions.min_cache_hit_ratio needs features.cache enabled")
	}
	if a.MaxLostBytes != nil && *a.MaxLostBytes < 0 {
		return fmt.Errorf("assertions.max_lost_bytes %d is negative", *a.MaxLostBytes)
	}
	if a.MaxFailedAttempts != nil && *a.MaxFailedAttempts < 0 {
		return fmt.Errorf("assertions.max_failed_attempts %d is negative", *a.MaxFailedAttempts)
	}
	if a.MaxPhysRequests < 0 {
		return fmt.Errorf("assertions.max_phys_requests %d is negative", a.MaxPhysRequests)
	}
	if a.MinRedundancy != nil {
		if *a.MinRedundancy < 0 || *a.MinRedundancy > pfs.MaxReplicationFactor {
			return fmt.Errorf("assertions.min_redundancy %d: want 0..%d", *a.MinRedundancy, pfs.MaxReplicationFactor)
		}
		if *a.MinRedundancy > 1 && s.Features.Failover != nil && !s.Features.Failover.Enabled {
			return fmt.Errorf("assertions.min_redundancy needs features.failover enabled")
		}
	}
	if a.MaxRepairTimeS < 0 {
		return fmt.Errorf("assertions.max_repair_time_s %g is negative", a.MaxRepairTimeS)
	}
	return nil
}

// Resolved defaults the rest of the package reads through.

func (s *Scenario) policy() string {
	if s.Workload.Policy == "" {
		return "none"
	}
	return s.Workload.Policy
}

func (s *Scenario) cacheEnabled() bool {
	return s.Features.Cache != nil && s.Features.Cache.Enabled
}

func (s *Scenario) burstEnabled() bool {
	return s.Features.Burst != nil && s.Features.Burst.Enabled
}

// ioNodes returns each cell's I/O-node count (the paper's 16 by default).
func (s *Scenario) ioNodes() int {
	if s.FleetGen != nil && s.FleetGen.IONodes > 0 {
		return s.FleetGen.IONodes
	}
	return 16
}

// cells returns the fleet's cell count; 1 is the single-machine shape.
func (s *Scenario) cells() int {
	if s.FleetGen != nil && s.FleetGen.Cells > 1 {
		return s.FleetGen.Cells
	}
	return 1
}

// ckptInterval returns the checkpoint interval: the stress command's default
// of 2 when unset, the explicit value (including 0 = off) otherwise. An app
// without a checkpointable work loop defaults to 0, and multi-cell fleets
// run single attempts (validateRun rejects an explicit interval).
func (s *Scenario) ckptInterval() int {
	if s.cells() > 1 {
		return 0
	}
	if s.Run.CkptInterval != nil {
		return *s.Run.CkptInterval
	}
	if !s.checkpoints() {
		return 0
	}
	return 2
}

// checkpoints reports whether the workload's app has a work loop to
// checkpoint, asking its configuration.
func (s *Scenario) checkpoints() bool {
	app := core.PaperStudy(core.AppID(s.Workload.App)).App
	if app == nil {
		return false
	}
	_, ok := app.WithCkpt(nil)
	return ok
}

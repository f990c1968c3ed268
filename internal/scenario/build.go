package scenario

import (
	"fmt"

	"repro/internal/burst"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/ionode"
	"repro/internal/pfs"
	"repro/internal/ppfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosWindowDefault matches the stress command's -chaos-window default.
const chaosWindowDefault = 600

// Build expands the scenario into the resilient study the core driver runs,
// plus the realized fleet (for reporting). It is the only code that maps
// features and chaos onto the PFS, burst and fault configurations: the CLI
// flags translate into a Scenario and come through here too.
func (s *Scenario) Build() (core.ResilientStudy, *Fleet, error) {
	var rs core.ResilientStudy
	study, err := s.baseStudy()
	if err != nil {
		return rs, nil, err
	}

	fleet, err := expandFleet(s, study.App.ComputeNodes(), study.Machine.PFS.IONodes, study.Machine.PFS.Disk)
	if err != nil {
		return rs, nil, s.fail(err)
	}
	if err := s.applyFleet(&study, fleet); err != nil {
		return rs, nil, s.fail(err)
	}
	if err := s.applyFeatures(&study, fleet); err != nil {
		return rs, nil, s.fail(err)
	}
	plan, err := s.buildPlan(fleet)
	if err != nil {
		return rs, nil, s.fail(err)
	}
	if !plan.Corruption.Empty() {
		// Unrepairable corruption classes need reroute-on-read so corrupt
		// reads heal from the mirror instead of killing the run.
		if !study.Machine.PFS.Failover.Enabled {
			study.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
		}
		if study.Machine.PFS.Replication.Factor == 0 {
			study.Machine.PFS.Replication.Factor = 2
		}
		if !study.Machine.PFS.Reliability.Enabled {
			study.Machine.PFS.Reliability = pfs.DefaultReliabilityConfig()
		}
		if !study.Machine.PFS.Integrity.Enabled {
			study.Machine.PFS.Integrity = integrity.DefaultConfig()
		}
	}
	study.Faults = plan
	study.FaultSeed = s.Seed
	if s.Workload.WindowS > 0 {
		study.WindowWidth = sim.FromSeconds(s.Workload.WindowS)
	}

	rs = core.ResilientStudy{
		Study:       study,
		MaxAttempts: s.Run.MaxAttempts,
		RestartCost: sim.FromSeconds(1.5),
	}
	if s.Run.RestartCostS != nil {
		rs.RestartCost = sim.FromSeconds(*s.Run.RestartCostS)
	}
	if iv := s.ckptInterval(); iv > 0 {
		bytes := s.Run.CkptBytes
		if bytes == 0 {
			bytes = 4096
		}
		rs.Ckpt = ckpt.Config{Interval: iv, BytesPerNode: bytes}
	}
	if rs.Burst.Enabled && rs.Ckpt.Interval == 0 {
		// No checkpoint traffic and no application in the suite uses M_LOG,
		// so the tier would sit idle: route the application's bulk output
		// files through the log by name prefix.
		rs.Burst.Prefixes = append(rs.App.OutputPrefixes(), rs.Burst.Prefixes...)
	}
	return rs, fleet, nil
}

func (s *Scenario) fail(err error) error {
	return fmt.Errorf("scenario %s: %w", s.Name, err)
}

// baseStudy picks the scale template for the app, or the default machine
// for the synthetic workload.
func (s *Scenario) baseStudy() (core.Study, error) {
	app := core.AppID(s.Workload.App)
	var study core.Study
	switch {
	case s.Workload.Synthetic != nil:
		cfg, err := s.Workload.Synthetic.config()
		if err != nil {
			return study, s.fail(err)
		}
		study = core.Study{App: cfg, Machine: workload.MachineConfig{PFS: pfs.DefaultConfig()}, KeepTrace: true}
	case s.Workload.Scale == "paper":
		study = core.PaperStudy(app)
	default:
		study = core.SmallStudy(app)
	}
	switch s.policy() {
	case "ppfs":
		p := ppfs.DefaultPolicy()
		study.Policy = &p
	case "adaptive":
		p := ppfs.DefaultPolicy()
		p.Adaptive = true
		study.Policy = &p
	}
	return study, nil
}

// applyFleet wires the realized fleet into the machine: stripe unit, I/O
// node count, per-node overrides, and the application's compute-node count.
func (s *Scenario) applyFleet(study *core.Study, f *Fleet) error {
	fg := s.FleetGen
	if fg == nil {
		return nil
	}
	if fg.StripeKB > 0 {
		study.Machine.PFS.StripeUnit = int64(fg.StripeKB * 1024)
	}
	if fg.IONodes > 0 {
		study.Machine.PFS.IONodes = f.IONodes
	}
	if len(f.Nodes) > 0 {
		study.Machine.PFS.Nodes = f.Nodes
	}
	if fg.ComputeNodes > 0 {
		app, err := study.App.WithNodes(f.ComputeNodes)
		if err != nil {
			return fmt.Errorf("fleet_gen.compute_nodes: %w", err)
		}
		study.App = app
	}
	return nil
}

// applyFeatures maps the features section onto the PFS and burst configs.
func (s *Scenario) applyFeatures(study *core.Study, f *Fleet) error {
	cfg := &study.Machine.PFS

	// Failover defaults on with replication, like the stress command.
	fo := s.Features.Failover
	if fo == nil {
		cfg.Failover = pfs.DefaultFailoverConfig()
		cfg.Replication.Factor = 2
	} else if fo.Enabled {
		cfg.Failover = pfs.DefaultFailoverConfig()
		cfg.Replication = pfs.ReplicationConfig{
			Factor:     fo.Factor,
			Seed:       fo.PlacementSeed,
			ReadPolicy: fo.ReadPolicy,
		}
		if rp := fo.Repair; rp != nil && rp.Enabled {
			rc := pfs.DefaultRepairConfig()
			if rp.BandwidthMBs != nil {
				rc.BandwidthBytesPerS = *rp.BandwidthMBs * float64(1<<20)
			}
			if rp.GiveUpS > 0 {
				rc.GiveUp = sim.FromSeconds(rp.GiveUpS)
			}
			cfg.Replication.Repair = rc
		}
	}

	if c := s.Features.Cache; c != nil && c.Enabled {
		ccfg := cache.DefaultConfig()
		if c.MB > 0 {
			ccfg.CapacityBytes = int64(c.MB * float64(1<<20))
		}
		if c.Prefetch != nil {
			ccfg.Prefetch = *c.Prefetch
		}
		ccfg.FlushOnFail = c.FlushOnFail
		cfg.Cache = ccfg
	}

	if co := s.Features.Collective; co != nil && co.Enabled {
		cfg.Collective = collective.Config{Enabled: true, Aggregators: co.Aggregators}
	}
	if s.Features.Sched != "" {
		cfg.Sched = ionode.SchedConfig{Policy: s.Features.Sched, Window: ionode.DefaultWindow}
	}

	if i := s.Features.Integrity; i != nil && i.Enabled {
		icfg := integrity.DefaultConfig()
		if i.Scrub {
			icfg.Scrub = integrity.DefaultScrubConfig()
			icfg.Scrub.Window = s.chaosWindow()
		}
		cfg.Integrity = icfg
	}
	if r := s.Features.Reliability; r != nil && r.Enabled {
		rel := pfs.DefaultReliabilityConfig()
		if r.DeadlineS > 0 {
			rel.Deadline = sim.FromSeconds(r.DeadlineS)
		}
		if r.Retries > 0 {
			rel.MaxRetries = r.Retries
		}
		cfg.Reliability = rel
	}

	if b := s.Features.Burst; b != nil && b.Enabled {
		bcfg := burst.DefaultConfig()
		if b.MB > 0 {
			bcfg.CapacityBytes = int64(b.MB * float64(1<<20))
		}
		bcfg.DrainBWBytesPerS = b.DrainMBs * float64(1<<20)
		if b.Compress > 0 {
			if b.Compress <= 1 {
				bcfg.Compress = burst.CompressConfig{}
			} else {
				bcfg.Compress.Ratio = b.Compress
			}
		}
		bcfg.PerNodeCapacity = f.BurstPerNode
		if err := bcfg.Validate(); err != nil {
			return err
		}
		study.Burst = bcfg
	}
	return nil
}

func (s *Scenario) chaosWindow() sim.Time {
	if s.Chaos.WindowS > 0 {
		return sim.FromSeconds(s.Chaos.WindowS)
	}
	return sim.FromSeconds(chaosWindowDefault)
}

// buildPlan converts the chaos section, plus the fleet's startup schedule,
// into the fault machinery's plan. Zone outages expand over the fleet's
// outage domains.
func (s *Scenario) buildPlan(f *Fleet) (fault.Plan, error) {
	c := s.Chaos
	var plan fault.Plan
	for i, e := range c.Events {
		k, err := fault.ParseKind(e.Kind)
		if err != nil {
			return plan, fmt.Errorf("chaos.events[%d]: %v", i, err)
		}
		plan.Events = append(plan.Events, fault.Event{
			Kind: k, At: sim.FromSeconds(e.AtS), Node: int(e.Node),
			Duration: sim.FromSeconds(e.DurationS), Factor: e.Factor,
		})
	}
	for i, x := range c.Exps {
		k, err := fault.ParseKind(x.Kind)
		if err != nil {
			return plan, fmt.Errorf("chaos.exps[%d]: %v", i, err)
		}
		plan.Exps = append(plan.Exps, fault.Exp{
			Kind: k, MeanBetween: sim.FromSeconds(x.MeanBetweenS),
			Start: sim.FromSeconds(x.StartS), End: sim.FromSeconds(x.EndS),
			Node: int(x.Node), Duration: sim.FromSeconds(x.DurationS), Factor: x.Factor,
		})
	}
	for i, ca := range c.Cascades {
		k, err := fault.ParseKind(ca.Kind)
		if err != nil {
			return plan, fmt.Errorf("chaos.cascades[%d]: %v", i, err)
		}
		plan.Cascades = append(plan.Cascades, fault.Cascade{
			Kind: k, At: sim.FromSeconds(ca.AtS), Nodes: ca.Nodes,
			FirstNode: int(ca.FirstNode), Spacing: sim.FromSeconds(ca.SpacingS),
			Duration: sim.FromSeconds(ca.DurationS), Factor: ca.Factor,
		})
	}
	for i, z := range c.ZoneOutages {
		members := zoneMembers(f.Zones(), z.Zone)
		if len(members) == 0 {
			return plan, fmt.Errorf("chaos.zone_outages[%d]: zone %d has no member I/O nodes (define zones on fleet_gen templates)", i, z.Zone)
		}
		for idx, node := range members {
			plan.Events = append(plan.Events, fault.Event{
				Kind:     fault.IONodeOutage,
				At:       sim.FromSeconds(z.AtS + float64(idx)*z.SpacingS),
				Node:     node,
				Duration: sim.FromSeconds(z.DurationS),
			})
		}
	}
	if c.Corrupt != nil {
		cp, err := fault.ParseCorruptionClasses(c.Corrupt.Classes, s.chaosWindow())
		if err != nil {
			return plan, fmt.Errorf("chaos.corrupt: %v", err)
		}
		plan.Corruption = cp
	}
	plan.Events = append(plan.Events, f.Startup...)
	return plan, nil
}

func zoneMembers(zones []int, zone int) []int {
	var out []int
	for node, z := range zones {
		if z == zone {
			out = append(out, node)
		}
	}
	return out
}

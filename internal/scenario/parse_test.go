package scenario

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestParseFullGolden(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "full.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "full-coverage" || s.Seed != 42 {
		t.Fatalf("identity: name=%q seed=%d", s.Name, s.Seed)
	}
	if s.Workload.App != "escat" || s.Workload.Scale != "small" || s.Workload.WindowS != 5 {
		t.Fatalf("workload: %+v", s.Workload)
	}
	fg := s.FleetGen
	if fg == nil || fg.ComputeNodes != 32 || fg.IONodes != 8 || fg.StripeKB != 64 {
		t.Fatalf("fleet_gen: %+v", fg)
	}
	if len(fg.Templates) != 2 {
		t.Fatalf("templates: %+v", fg.Templates)
	}
	fast := fg.Templates[0]
	if fast.Name != "fast" || fast.Count != 2 || fast.DiskMBs != 9 ||
		fast.PositionMs != 15 || fast.DiskStreams != 4 || fast.CacheMB != 2 {
		t.Fatalf("fast template: %+v", fast)
	}
	if slow := fg.Templates[1]; slow.BurstMB != 4 || slow.Zone != 1 {
		t.Fatalf("slow template: %+v", slow)
	}
	if st := fg.Startup; st == nil || st.Pattern != "wave" || st.OverS != 1.5 ||
		st.Waves != 2 || st.JitterFrac != 0.1 {
		t.Fatalf("startup: %+v", fg.Startup)
	}
	f := s.Features
	if f.Cache == nil || !f.Cache.Enabled || f.Cache.MB != 1 ||
		f.Cache.Prefetch == nil || *f.Cache.Prefetch || !f.Cache.FlushOnFail {
		t.Fatalf("cache feature: %+v", f.Cache)
	}
	if f.Collective == nil || f.Collective.Aggregators != 4 || f.Sched != "cscan" {
		t.Fatalf("collective/sched: %+v %q", f.Collective, f.Sched)
	}
	if f.Burst == nil || f.Burst.MB != 8 || f.Burst.Compress != 1.8 {
		t.Fatalf("burst feature: %+v", f.Burst)
	}
	if f.Integrity == nil || !f.Integrity.Scrub || f.Reliability == nil ||
		f.Reliability.DeadlineS != 0.5 || f.Failover == nil || f.Failover.Factor != 2 {
		t.Fatalf("integrity/reliability/failover: %+v %+v %+v",
			f.Integrity, f.Reliability, f.Failover)
	}
	c := s.Chaos
	if len(c.Events) != 1 || len(c.Exps) != 1 || len(c.Cascades) != 1 ||
		len(c.ZoneOutages) != 1 || c.Corrupt == nil {
		t.Fatalf("chaos: %+v", c)
	}
	if int(c.Exps[0].Node) != fault.AnyNode {
		t.Fatalf("exp node: want AnyNode, got %d", c.Exps[0].Node)
	}
	if c.ZoneOutages[0].Zone != 1 || c.ZoneOutages[0].SpacingS != 0.1 {
		t.Fatalf("zone outage: %+v", c.ZoneOutages[0])
	}
	if s.Run.CkptInterval == nil || *s.Run.CkptInterval != 2 ||
		s.Run.RestartCostS == nil || *s.Run.RestartCostS != 1.5 {
		t.Fatalf("run: %+v", s.Run)
	}
	a := s.Assertions
	if a == nil || a.Expected != "degraded" || a.MaxMakespanS != 600 ||
		a.MaxLostBytes == nil || *a.MaxLostBytes != 1<<20 ||
		a.MaxFailedAttempts == nil || *a.MaxFailedAttempts != 7 {
		t.Fatalf("assertions: %+v", a)
	}
}

func TestParseMinimalDefaultsNameFromFilename(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "minimal.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "minimal" {
		t.Fatalf("name: want %q (from filename), got %q", "minimal", s.Name)
	}
	if s.FleetGen != nil || s.Assertions != nil || !s.Chaos.Empty() {
		t.Fatalf("minimal scenario grew sections: %+v", s)
	}
}

func TestParseJSONDetection(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "json-shape" || s.Workload.App != "render" {
		t.Fatalf("json scenario: %+v", s)
	}
	if int(s.Chaos.Events[0].Node) != fault.AnyNode {
		t.Fatalf("node \"any\": got %d", s.Chaos.Events[0].Node)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"empty", "", "empty scenario"},
		{"unknown field", "workload:\n  app: escat\nbogus: 1\n", "unknown field"},
		{"unknown nested field", "workload:\n  app: escat\n  turbo: true\n", "unknown field"},
		{"removed shard_layout", "workload:\n  app: escat\nfleet_gen:\n  shard_layout: \"split:2\"\n", "unknown field"},
		{"bad app", "workload:\n  app: doom\n", "workload.app"},
		{"bad policy", "workload:\n  app: escat\n  policy: magic\n", "workload.policy"},
		{"bad expected", "workload:\n  app: escat\nassertions:\n  expected: maybe\n", "assertions.expected"},
		{"hit ratio without cache", "workload:\n  app: escat\nassertions:\n  min_cache_hit_ratio: 0.5\n", "features.cache"},
		{"cache_mb without cache", "workload:\n  app: escat\nfleet_gen:\n  templates:\n    - name: t\n      cache_mb: 4\n", "features.cache"},
		{"counts exceed fleet", "workload:\n  app: escat\nfleet_gen:\n  io_nodes: 4\n  templates:\n    - name: t\n      count: 5\n", "pin 5 nodes"},
		{"bad chaos kind", "workload:\n  app: escat\nchaos:\n  events:\n    - kind: meteor\n      at_s: 1\n", "chaos.events[0]"},
		{"exp bad window", "workload:\n  app: escat\nchaos:\n  exps:\n    - kind: ionode-outage\n      mean_between_s: 5\n      start_s: 9\n      end_s: 3\n", "end_s"},
		{"exp negative duration", "workload:\n  app: escat\nchaos:\n  exps:\n    - kind: ionode-outage\n      mean_between_s: 10\n      end_s: 100\n      duration_s: -1\n", "chaos.exps[0]: times must be >= 0"},
		{"exp negative start", "workload:\n  app: escat\nchaos:\n  exps:\n    - kind: ionode-outage\n      mean_between_s: 10\n      start_s: -5\n      end_s: 100\n", "chaos.exps[0]: times must be >= 0"},
		{"negative compress", "workload:\n  app: escat\nfeatures:\n  burst:\n    enabled: true\n    compress: -2\n", "features.burst.compress -2 is negative"},
		{"waves without wave", "workload:\n  app: escat\nfleet_gen:\n  startup:\n    pattern: linear\n    waves: 3\n", "pattern: wave"},
		{"burst with policy", "workload:\n  app: escat\n  policy: ppfs\nfeatures:\n  burst:\n    enabled: true\n", "mutually exclusive"},
		{"render with ckpt", "workload:\n  app: render\nrun:\n  ckpt_interval: 2\n", "run.ckpt_interval: render does not support checkpointing"},
		{"negative cells", "workload:\n  app: escat\nfleet_gen:\n  cells: -2\n", "fleet_gen.cells"},
		{"stagger without cells", "workload:\n  app: escat\nfleet_gen:\n  stagger_s: 0.5\n", "cells > 1"},
		{"fleet with ckpt", "workload:\n  app: escat\nfleet_gen:\n  cells: 4\nrun:\n  ckpt_interval: 2\n", "single attempt"},
		{"fleet with attempts", "workload:\n  app: escat\nfleet_gen:\n  cells: 4\nrun:\n  max_attempts: 3\n", "single attempt"},
		{"removed replicate", "workload:\n  app: escat\nfeatures:\n  failover:\n    enabled: true\n    replicate: true\n", "unknown field"},
		{"placement seed without failover", "workload:\n  app: escat\nfeatures:\n  failover:\n    enabled: false\n    placement_seed: 3\n", "features.failover.placement_seed needs features.failover.enabled"},
		{"sub-microsecond window", "workload:\n  app: escat\n  window_s: 0.0000001\n", "workload.window_s 1e-07 is below the clock's 1 µs resolution"},
		{"sub-microsecond chaos window", "workload:\n  app: escat\nchaos:\n  window_s: 0.0000001\n", "chaos.window_s 1e-07 is below the clock's 1 µs resolution"},
		{"sub-microsecond deadline", "workload:\n  app: escat\nfeatures:\n  reliability:\n    enabled: true\n    deadline_s: 0.0000001\n", "features.reliability.deadline_s 1e-07 is below"},
		{"sub-microsecond give-up", "workload:\n  app: escat\nfeatures:\n  failover:\n    enabled: true\n    factor: 2\n    repair:\n      enabled: true\n      give_up_s: 0.0000001\n", "features.failover.repair.give_up_s 1e-07 is below"},
		{"bad node ref", "workload:\n  app: escat\nchaos:\n  events:\n    - kind: disk-failure\n      at_s: 1\n      node: some\n", "node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src), "")
			if err == nil {
				t.Fatalf("Parse(%q): want error, got none", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestRepairBandwidthZeroIsUnthrottled: an unset repair bandwidth takes the
// 32 MB/s default, and an explicit 0 leaves repair unthrottled.
func TestRepairBandwidthZeroIsUnthrottled(t *testing.T) {
	for _, tc := range []struct {
		field string
		want  float64
	}{
		{"", 32 << 20},
		{"\n      bandwidth_mb_s: 0", 0},
		{"\n      bandwidth_mb_s: 2", 2 << 20},
	} {
		src := "workload:\n  app: escat\nfeatures:\n  failover:\n    enabled: true\n    factor: 2\n    repair:\n      enabled: true" + tc.field + "\n"
		s, err := Parse([]byte(src), "")
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Study.Machine.PFS.Replication.Repair.BandwidthBytesPerS; got != tc.want {
			t.Errorf("bandwidth_mb_s %q: repair bandwidth %g B/s, want %g", tc.field, got, tc.want)
		}
	}
}

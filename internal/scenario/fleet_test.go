package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

func loadFull(t *testing.T) *Scenario {
	t.Helper()
	s, err := Load(filepath.Join("testdata", "full.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFleetGenDeterminism(t *testing.T) {
	s := loadFull(t)
	_, f1, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, f2, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("same seed produced different fleets:\n%+v\n%+v", f1, f2)
	}

	// A different seed must reshuffle the layout (8 nodes across 2 templates:
	// a collision is astronomically unlikely for these two specific seeds).
	s2 := loadFull(t)
	s2.Seed = 43
	_, f3, err := s2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(f1.Assignment, f3.Assignment) && reflect.DeepEqual(f1.Startup, f3.Startup) {
		t.Fatalf("seed change did not alter the fleet: %v", f1.Assignment)
	}
}

func TestFleetExpansionShape(t *testing.T) {
	s := loadFull(t)
	_, f, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.ComputeNodes != 32 || f.IONodes != 8 {
		t.Fatalf("shape: %d/%d", f.ComputeNodes, f.IONodes)
	}
	counts := map[string]int{}
	for _, name := range f.Assignment {
		counts[name]++
	}
	// fast pins 2 by count; slow (the only weighted template) absorbs the rest.
	if counts["fast"] != 2 || counts["slow"] != 6 {
		t.Fatalf("assignment counts: %v", counts)
	}
	for i, n := range f.Nodes {
		switch f.Assignment[i] {
		case "fast":
			if n.Disk == nil || n.Disk.BWBytesPerS != 9e6 || n.CacheBytes != 2<<20 || n.Zone != 0 {
				t.Fatalf("fast node %d: %+v", i, n)
			}
		case "slow":
			if n.Disk == nil || n.Disk.BWBytesPerS != 2e6 || n.Zone != 1 {
				t.Fatalf("slow node %d: %+v", i, n)
			}
		}
	}
	if len(f.BurstPerNode) != 32 {
		t.Fatalf("burst per node: %d entries", len(f.BurstPerNode))
	}
	// Burst logs draw from the templates: fast has none, slow 4 MB.
	slow := false
	for i, b := range f.BurstPerNode {
		if b != 0 && b != 4<<20 {
			t.Fatalf("compute node %d burst log %d bytes, want 0 or the slow template's 4 MB", i, b)
		}
		slow = slow || b == 4<<20
	}
	if !slow {
		t.Fatal("no compute node drew the slow template's 4 MB burst log")
	}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		name    string
		ts      []Template
		ioNodes int
		want    []int
		wantErr string
	}{
		{"weights only", []Template{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}}, 8, []int{6, 2}, ""},
		{"default weight", []Template{{Name: "a"}, {Name: "b"}}, 5, []int{3, 2}, ""},
		{"count plus weight", []Template{{Name: "a", Count: 3}, {Name: "b"}}, 8, []int{3, 5}, ""},
		{"counts exact", []Template{{Name: "a", Count: 2}, {Name: "b", Count: 6}}, 8, []int{2, 6}, ""},
		{"counts overflow", []Template{{Name: "a", Count: 9}}, 8, nil, "pin 9 nodes"},
		{"leftover unabsorbed", []Template{{Name: "a", Count: 3}}, 8, nil, "absorb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := apportion(tc.ts, tc.ioNodes)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v want %v", got, tc.want)
			}
		})
	}
}

func TestStartupPatterns(t *testing.T) {
	const n = 8
	linear := startupEvents(&Startup{Pattern: "linear", OverS: 7}, n, 1)
	// Node 0 comes up at t=0 (no event); all others are held down.
	if len(linear) != n-1 {
		t.Fatalf("linear: %d events, want %d", len(linear), n-1)
	}
	for i, e := range linear {
		if e.Kind != fault.IONodeOutage || e.At != 0 || e.Node != i+1 {
			t.Fatalf("linear event %d: %+v", i, e)
		}
		if i > 0 && linear[i].Duration <= linear[i-1].Duration {
			t.Fatalf("linear durations not increasing: %v then %v",
				linear[i-1].Duration, linear[i].Duration)
		}
	}
	last := linear[len(linear)-1].Duration.Seconds()
	if last < 6.99 || last > 7.01 {
		t.Fatalf("linear last node online at %gs, want ~7", last)
	}

	exp := startupEvents(&Startup{Pattern: "exponential", OverS: 7}, n, 1)
	// Exponential front-loads: the median node comes up earlier than linear's.
	if exp[3].Duration >= linear[3].Duration {
		t.Fatalf("exponential median %v not earlier than linear %v",
			exp[3].Duration, linear[3].Duration)
	}

	wave := startupEvents(&Startup{Pattern: "wave", OverS: 6, Waves: 3}, 9, 1)
	times := map[float64]int{}
	for _, e := range wave {
		times[e.Duration.Seconds()]++
	}
	// 9 nodes in 3 waves at t=0/3/6: waves 2 and 3 are held down, 3 nodes each.
	if len(wave) != 6 || times[3] != 3 || times[6] != 3 {
		t.Fatalf("wave batches: %v", times)
	}

	if ev := startupEvents(&Startup{Pattern: "instant"}, n, 1); ev != nil {
		t.Fatalf("instant produced events: %v", ev)
	}
	if ev := startupEvents(nil, n, 1); ev != nil {
		t.Fatalf("nil startup produced events: %v", ev)
	}

	// Jitter only ever delays, and is deterministic per seed.
	j1 := startupEvents(&Startup{Pattern: "linear", OverS: 7, JitterFrac: 0.2}, n, 1)
	j2 := startupEvents(&Startup{Pattern: "linear", OverS: 7, JitterFrac: 0.2}, n, 1)
	if !reflect.DeepEqual(j1, j2) {
		t.Fatal("jitter is not deterministic for a fixed seed")
	}
	for i, e := range j1 {
		base := linear[i].Duration
		if e.Duration < base || e.Duration.Seconds() > base.Seconds()+0.2*7 {
			t.Fatalf("jittered node %d at %v outside [%v, +20%%]", e.Node, e.Duration, base)
		}
	}
}

func TestZoneOutageNeedsMembers(t *testing.T) {
	s, err := Parse([]byte(`
workload:
  app: escat
chaos:
  zone_outages:
    - zone: 3
      at_s: 1
      duration_s: 0.5
`), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Build(); err == nil || !strings.Contains(err.Error(), "zone 3 has no member") {
		t.Fatalf("want zone-membership error, got %v", err)
	}
}

// TestBuildErrors: scenarios that parse but cannot be built, because the
// expanded fleet does not fit the application.
func TestBuildErrors(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"render on one node", "workload:\n  app: render\nfleet_gen:\n  compute_nodes: 1\n",
			"fleet_gen.compute_nodes: render needs >= 2 (1 master + renderers), got 1"},
		{"htf past its records", "workload:\n  app: htf\nfleet_gen:\n  compute_nodes: 37\n",
			"fleet_gen.compute_nodes: htf needs <= 36 (one integral record per node at this scale), got 37"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.src), "")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Build(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestZoneOutageExpansion(t *testing.T) {
	s := loadFull(t)
	rs, f, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, n := range f.Nodes {
		if n.Zone == 1 {
			members++
		}
	}
	// One hold-down event per zone-1 node, plus the explicit disk failure and
	// the startup hold-downs.
	zoneEvents := 0
	for _, e := range rs.Study.Faults.Events {
		if e.Kind == fault.IONodeOutage && e.At.Seconds() >= 4 {
			zoneEvents++
		}
	}
	if zoneEvents != members {
		t.Fatalf("zone outage expanded to %d events for %d members", zoneEvents, members)
	}
}

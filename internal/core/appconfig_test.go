package core

import (
	"strings"
	"testing"

	"repro/internal/apps/htf"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/workload"
)

// TestAppConfigContract holds every application config to the
// workload.AppConfig contract the drivers rely on instead of switching on
// the app: WithNodes resizes exactly or refuses, WithCkpt succeeds only for
// the apps with a checkpointable work loop, and every OutputPrefixes entry
// names files the app's small run writes.
func TestAppConfigContract(t *testing.T) {
	syn := workload.SyntheticConfig{Nodes: 4, Mode: iotrace.ModeUnix, RecordBytes: 4096, Records: 4}
	for _, tc := range []struct {
		name     string
		study    Study
		ckpt     bool
		badNodes int // a node count WithNodes must reject; 0 = none
	}{
		{"escat", SmallStudy(ESCAT), true, 0},
		{"render", SmallStudy(RENDER), false, 1},
		{"htf", SmallStudy(HTF), true, htf.SmallConfig().IntegralRecords + 1},
		{"synthetic", syntheticStudy(syn, pfs.DefaultConfig()), false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.study.App
			for _, n := range []int{2, 5, 16} {
				resized, err := cfg.WithNodes(n)
				if err != nil {
					t.Fatalf("WithNodes(%d): %v", n, err)
				}
				if got := resized.ComputeNodes(); got != n {
					t.Errorf("WithNodes(%d).ComputeNodes() = %d", n, got)
				}
			}
			if tc.badNodes != 0 {
				if _, err := cfg.WithNodes(tc.badNodes); err == nil {
					t.Errorf("WithNodes(%d) accepted", tc.badNodes)
				}
			}
			if _, ok := cfg.WithCkpt(nil); ok != tc.ckpt {
				t.Errorf("WithCkpt ok = %v, want %v", ok, tc.ckpt)
			}

			var names map[iotrace.FileID]string
			fr, err := runFleet(tc.study, FleetOptions{Cells: 1, Shards: 1}, func(_ int, m *workload.Machine) {
				names = map[iotrace.FileID]string{}
				for _, f := range m.PFS.Files() {
					names[f.ID] = f.Name
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			var written []string
			for _, e := range fr.Cells[0].Events {
				if e.Op == iotrace.OpWrite {
					written = append(written, names[e.File])
				}
			}
			for _, prefix := range cfg.OutputPrefixes() {
				found := false
				for _, name := range written {
					found = found || strings.HasPrefix(name, prefix)
				}
				if !found {
					t.Errorf("output prefix %q names no file the run writes", prefix)
				}
			}
		})
	}
}

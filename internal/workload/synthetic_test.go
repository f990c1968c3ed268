package workload

import (
	"testing"

	"repro/internal/iotrace"
	"repro/internal/pfs"
)

func runSynthetic(t *testing.T, cfg SyntheticConfig) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{ComputeNodes: cfg.Nodes, PFS: pfs.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	app, err := cfg.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(m, WrapPFS(m.PFS), app); err != nil {
		t.Fatal(err)
	}
	if err := app.(*Synthetic).Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSyntheticAllModes(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		m := runSynthetic(t, SyntheticConfig{
			Nodes: 4, Mode: mode, RecordBytes: 4096, Records: 4,
		})
		if m.Eng.Now() == 0 {
			t.Errorf("%v: run took no simulated time", mode)
		}
	}
}

func TestSyntheticWriteExtent(t *testing.T) {
	// 4 nodes x 4 x 4 KB sequential M_UNIX writes over disjoint partitions.
	m := runSynthetic(t, SyntheticConfig{
		Nodes: 4, Mode: iotrace.ModeUnix, RecordBytes: 4096, Records: 4,
	})
	info, ok := m.PFS.Stat("synthetic-M_UNIX")
	if !ok {
		t.Fatal("file missing")
	}
	if info.Size != 4*4*4096 {
		t.Fatalf("extent %d, want %d", info.Size, 4*4*4096)
	}
}

func TestSyntheticRandomReadsDeterministicAndSpread(t *testing.T) {
	cfg := SyntheticConfig{
		Nodes: 4, Mode: iotrace.ModeAsync, RecordBytes: 4096, Records: 16,
		Read: true, Random: true, Seed: 7, FileBytes: 1 << 22,
	}
	a := runSynthetic(t, cfg).Eng.Now()
	b := runSynthetic(t, cfg).Eng.Now()
	if a != b {
		t.Fatalf("two identical random runs diverged: %v vs %v", a, b)
	}
	// A different seed must change the access sequence (and hence timing).
	cfg.Seed = 8
	if c := runSynthetic(t, cfg).Eng.Now(); c == a {
		t.Fatal("seed change did not change the run")
	}
}

func TestSyntheticConfigValidation(t *testing.T) {
	if _, err := (SyntheticConfig{Nodes: 0, RecordBytes: 1, Records: 1}).New(); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := (SyntheticConfig{Nodes: 1, RecordBytes: 0, Records: 1}).New(); err == nil {
		t.Error("zero record size accepted")
	}
}

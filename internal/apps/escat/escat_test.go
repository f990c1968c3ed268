package escat

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runESCAT executes the skeleton under the given config and returns the
// captured trace plus the machine.
func runESCAT(t testing.TB, cfg Config) ([]iotrace.Event, *workload.Machine) {
	t.Helper()
	mc := MachineConfig()
	mc.ComputeNodes = cfg.Nodes
	m, err := workload.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	tr := pablo.NewTracer(true)
	m.PFS.SetRecorder(tr)
	app, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(m, workload.WrapPFS(m.PFS), app); err != nil {
		t.Fatal(err)
	}
	if err := app.Err(); err != nil {
		t.Fatal(err)
	}
	return tr.Events(), m
}

// Cached full-scale run, shared across tests (the simulation is
// deterministic, so sharing is safe).
var (
	paperTrace   []iotrace.Event
	paperMachine *workload.Machine
)

func paperRun(t testing.TB) []iotrace.Event {
	events, _ := runESCATCached(t)
	return events
}

func runESCATCached(t testing.TB) ([]iotrace.Event, *workload.Machine) {
	if paperTrace == nil {
		paperTrace, paperMachine = runESCAT(t, DefaultConfig())
	}
	return paperTrace, paperMachine
}

func TestPaperOperationCounts(t *testing.T) {
	s := analysis.Summarize(paperRun(t))
	// Table 1 counts, reproduced exactly.
	cases := map[string]int64{
		"Read":  560,
		"Write": 13330,
		"Seek":  12034,
		"Open":  262,
		"Close": 262,
	}
	for label, want := range cases {
		row := s.Row(label)
		if row == nil {
			t.Fatalf("missing row %s", label)
		}
		if row.Count != want {
			t.Errorf("%s count = %d, want %d (Table 1)", label, row.Count, want)
		}
	}
}

func TestPaperSizeBuckets(t *testing.T) {
	sizes := analysis.Sizes(paperRun(t))
	// Table 2: reads 297 / 3 / 260 / 0, writes 13330 / 0 / 0 / 0.
	rb := sizes.Read.Buckets()
	if rb[0] != 297 || rb[1] != 3 || rb[2] != 260 || rb[3] != 0 {
		t.Errorf("read buckets %v, want [297 3 260 0] (Table 2)", rb)
	}
	wb := sizes.Write.Buckets()
	if wb[0] != 13330 || wb[1] != 0 || wb[2] != 0 || wb[3] != 0 {
		t.Errorf("write buckets %v, want [13330 0 0 0] (Table 2)", wb)
	}
}

func TestPaperVolumesApproximate(t *testing.T) {
	s := analysis.Summarize(paperRun(t))
	read := s.Row("Read").Volume
	write := s.Row("Write").Volume
	// Write volume: 13,330 ~2KB records vs paper 26,757,088 (within 5%).
	if write < 25_000_000 || write > 28_500_000 {
		t.Errorf("write volume %d, paper 26,757,088", write)
	}
	// Read volume: paper reports 34.2 MB; the reread-what-you-wrote
	// structure bounds it near the write volume plus initialization, so we
	// accept 26-35 MB (see EXPERIMENTS.md on the paper's internal
	// inconsistency).
	if read < 26_000_000 || read > 35_000_000 {
		t.Errorf("read volume %d, paper 34,226,048", read)
	}
}

func TestPaperTimeShape(t *testing.T) {
	s := analysis.Summarize(paperRun(t))
	// Table 1 shape: seek and write dominate (~96% together), seek > write,
	// reads negligible (<1%), opens ~3%.
	seek, write := s.Row("Seek"), s.Row("Write")
	read, open := s.Row("Read"), s.Row("Open")
	if seek.Pct+write.Pct < 85 {
		t.Errorf("seek+write = %.1f%%, paper 95.8%%", seek.Pct+write.Pct)
	}
	if seek.Pct <= write.Pct {
		t.Errorf("seek (%.1f%%) should exceed write (%.1f%%)", seek.Pct, write.Pct)
	}
	if read.Pct > 2 {
		t.Errorf("read pct %.2f, paper 0.21", read.Pct)
	}
	if open.Pct > 10 {
		t.Errorf("open pct %.2f, paper 3.04", open.Pct)
	}
}

func TestPaperWallClock(t *testing.T) {
	_, m := runESCATCached(t)
	// "roughly one and three quarter hours" = ~6300 s; accept 4500-8000.
	wall := m.Eng.Now().Seconds()
	if wall < 4500 || wall > 8000 {
		t.Errorf("wall clock %.0f s, paper ~6300 s", wall)
	}
}

func TestReadsOnlyInInitAndReloadPhases(t *testing.T) {
	// Figure 2: reads appear only at the start (initialization) and the far
	// right (reload staging).
	for _, e := range paperRun(t) {
		if e.Op == iotrace.OpRead {
			if e.Phase != PhaseInit && e.Phase != PhaseReload {
				t.Fatalf("read in phase %q at %v", e.Phase, e.Start)
			}
		}
	}
}

func TestWriteBurstSpacingShrinks(t *testing.T) {
	events := paperRun(t)
	writes := analysis.WriteTimeline(analysis.FilterPhase(events, PhaseQuadrature))
	bursts := analysis.Bursts(writes, 30*sim.Second)
	if len(bursts) != 52 {
		t.Fatalf("quadrature bursts = %d, want 52", len(bursts))
	}
	sp := analysis.BurstSpacings(bursts)
	early := sp[0].Seconds()
	late := sp[len(sp)-1].Seconds()
	// Figure 4: spacing ~160 s early, about half that late.
	if early < 120 || early > 200 {
		t.Errorf("early spacing %.0f s, paper ~160 s", early)
	}
	if late > 0.65*early {
		t.Errorf("late spacing %.0f s not roughly half of early %.0f s", late, early)
	}
}

func TestEachNodeRereadsItsOwnRegion(t *testing.T) {
	// §5.1: each node rereads the same quadrature data it wrote. Check
	// reload read offsets equal the node's write region start.
	events := paperRun(t)
	region := int64(52) * 2048
	for _, e := range analysis.FilterPhase(events, PhaseReload) {
		if e.Op != iotrace.OpRead {
			continue
		}
		if e.Offset != int64(e.Node)*region {
			t.Fatalf("node %d reload at offset %d, want %d", e.Node, e.Offset, int64(e.Node)*region)
		}
		if e.Bytes != region {
			t.Fatalf("reload read %d bytes, want %d", e.Bytes, region)
		}
		if e.Mode != iotrace.ModeRecord {
			t.Fatalf("reload mode %v, want M_RECORD", e.Mode)
		}
	}
}

func TestQuadratureWritesUseMUnixSmallRecords(t *testing.T) {
	for _, e := range analysis.FilterPhase(paperRun(t), PhaseQuadrature) {
		if e.Op == iotrace.OpWrite {
			if e.Mode != iotrace.ModeUnix {
				t.Fatalf("quadrature write mode %v", e.Mode)
			}
			if e.Bytes != 2048 {
				t.Fatalf("quadrature write %d bytes", e.Bytes)
			}
		}
	}
}

func TestFileAccessRoles(t *testing.T) {
	// Figure 5: inputs (9-11) only read; staging (7-8) written then read;
	// outputs (3-5) only written.
	events := paperRun(t)
	readFiles := map[iotrace.FileID]bool{}
	writeFiles := map[iotrace.FileID]bool{}
	for _, e := range events {
		switch e.Op {
		case iotrace.OpRead:
			readFiles[e.File] = true
		case iotrace.OpWrite:
			writeFiles[e.File] = true
		}
	}
	for _, id := range []iotrace.FileID{9, 10, 11} {
		if !readFiles[id] || writeFiles[id] {
			t.Errorf("input file %d roles wrong (read=%v write=%v)", id, readFiles[id], writeFiles[id])
		}
	}
	for _, id := range []iotrace.FileID{7, 8} {
		if !readFiles[id] || !writeFiles[id] {
			t.Errorf("staging file %d roles wrong", id)
		}
	}
	for _, id := range []iotrace.FileID{3, 4, 5} {
		if readFiles[id] || !writeFiles[id] {
			t.Errorf("output file %d roles wrong", id)
		}
	}
}

func TestSmallConfigDeterministic(t *testing.T) {
	run := func() sim.Time {
		_, m := runESCAT(t, SmallConfig())
		return m.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSmallConfigStructure(t *testing.T) {
	cfg := SmallConfig()
	events, _ := runESCAT(t, cfg)
	s := analysis.Summarize(events)
	// 8 nodes x 2 files x 6 iterations = 96 quadrature writes + 18 output.
	if got := s.Row("Write").Count; got != 96+18 {
		t.Errorf("writes %d, want 114", got)
	}
	// Opens: 8 nodes x 2 staging + 3 inputs + 3 outputs = 22.
	if got := s.Row("Open").Count; got != 22 {
		t.Errorf("opens %d, want 22", got)
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 0, Iterations: 5},
		{Nodes: 4, Iterations: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigLargerThanMachineRejected(t *testing.T) {
	cfg := SmallConfig()
	mc := MachineConfig()
	mc.ComputeNodes = cfg.Nodes - 1
	m, err := workload.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := New(cfg)
	if err := app.Launch(m, workload.WrapPFS(m.PFS)); err == nil {
		t.Fatal("oversized config accepted")
	}
}

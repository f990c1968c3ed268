package htf

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
	"repro/internal/workload"
)

func runHTF(t testing.TB, cfg Config) ([]iotrace.Event, *workload.Machine) {
	t.Helper()
	mc := MachineConfig()
	mc.ComputeNodes = cfg.Nodes
	m, err := workload.NewMachine(mc)
	if err != nil {
		t.Fatal(err)
	}
	tr := pablo.NewTracer(true)
	m.PFS.SetRecorder(tr)
	app, err := cfg.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(m, workload.WrapPFS(m.PFS), app); err != nil {
		t.Fatal(err)
	}
	if err := app.(*App).Err(); err != nil {
		t.Fatal(err)
	}
	return tr.Events(), m
}

// The paper's tables grade the same run through core's fidelity checker;
// these tests check what backs the figures and the running text.
var paperTrace []iotrace.Event

func paperRun(t testing.TB) []iotrace.Event {
	if paperTrace == nil {
		paperTrace, _ = runHTF(t, DefaultConfig())
	}
	return paperTrace
}

func phase(t testing.TB, ph iotrace.Phase) []iotrace.Event {
	return analysis.FilterPhase(paperRun(t), ph)
}

func TestEveryNodeHasOwnIntegralFile(t *testing.T) {
	// Figures 15-17: each node writes the integral data to a separate file
	// and rereads that same file.
	writers := map[iotrace.FileID]int32{}
	for _, e := range phase(t, PhasePargos) {
		if e.Op == iotrace.OpWrite && e.Bytes == recordBytes {
			if prev, seen := writers[e.File]; seen && prev != e.Node {
				t.Fatalf("file %d written by nodes %d and %d", e.File, prev, e.Node)
			}
			writers[e.File] = e.Node
		}
	}
	if len(writers) != 128 {
		t.Fatalf("%d integral files, want 128", len(writers))
	}
	for _, e := range phase(t, PhasePscf) {
		if e.Op == iotrace.OpRead && e.Bytes == recordBytes {
			if owner, ok := writers[e.File]; ok && owner != e.Node {
				t.Fatalf("node %d read node %d's integral file", e.Node, owner)
			}
		}
	}
}

func TestAllIOIsMUnix(t *testing.T) {
	// §7: "The Intel M_UNIX file mode is used exclusively in all three
	// codes."
	for _, e := range paperRun(t) {
		if e.Mode != iotrace.ModeUnix {
			t.Fatalf("op %v in mode %v", e.Op, e.Mode)
		}
	}
}

func TestRecordsDistribution(t *testing.T) {
	app, _ := DefaultConfig().New()
	total := 0
	for n := 0; n < 128; n++ {
		r := app.(*App).RecordsForNode(n)
		if r != 66 && r != 67 {
			t.Fatalf("node %d has %d records", n, r)
		}
		total += r
	}
	if total != 8532 {
		t.Fatalf("total records %d", total)
	}
}

func TestSmallConfigDeterministic(t *testing.T) {
	run := func() sim.Time {
		_, m := runHTF(t, SmallConfig())
		return m.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSmallConfigPhases(t *testing.T) {
	events, _ := runHTF(t, SmallConfig())
	for _, name := range []iotrace.Phase{PhasePsetup, PhasePargos, PhasePscf} {
		if len(analysis.FilterPhase(events, name)) == 0 {
			t.Errorf("no events in phase %s", name)
		}
	}
	// 2 passes x 36 records + 3 extra reread reads.
	var recReads int64
	for _, e := range analysis.FilterPhase(events, PhasePscf) {
		if e.Op == iotrace.OpRead && e.Bytes == recordBytes {
			recReads++
		}
	}
	if recReads != 2*36+3 {
		t.Errorf("pscf record reads %d, want 75", recReads)
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 0, IntegralRecords: 10, SCFPasses: 1},
		{Nodes: 16, IntegralRecords: 10, SCFPasses: 1}, // fewer records than nodes
		{Nodes: 4, IntegralRecords: 10, SCFPasses: 0},
	}
	for i, cfg := range bad {
		if _, err := cfg.New(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRecomputeVariantBeatsRereadOnSlowIO(t *testing.T) {
	// §7.2: "the integrals are recomputed as needed, substantially
	// increasing the computation requirements but reducing... the total
	// execution time" — on the traced machine's slow I/O, the recompute
	// variant must win.
	reread := SmallConfig()
	recompute := SmallConfig()
	recompute.RecomputeIntegrals = true
	_, mRead := runHTF(t, reread)
	_, mComp := runHTF(t, recompute)
	if mComp.Eng.Now() >= mRead.Eng.Now() {
		t.Fatalf("recompute (%v) not faster than reread (%v) on slow I/O",
			mComp.Eng.Now(), mRead.Eng.Now())
	}
}

func TestRereadWinsOnFastIO(t *testing.T) {
	// With per-node-disk-class I/O (the paper's 5-10 MB/s/node threshold
	// met), rereading stored integrals beats recomputation.
	fast := func(cfg Config) *workload.Machine {
		mc := MachineConfig()
		mc.ComputeNodes = cfg.Nodes
		mc.PFS.IONodes = cfg.Nodes // a disk per node, as §7.2 prescribes
		mc.PFS.Disk.Position = 1 * sim.Millisecond
		mc.PFS.Disk.Overhead = 200 * sim.Microsecond
		mc.PFS.Disk.BWBytesPerS = 50e6
		mc.PFS.Cost.ReadCopyBytesPerS = 0 // no client copy path
		m, err := workload.NewMachine(mc)
		if err != nil {
			t.Fatal(err)
		}
		app, err := cfg.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.Run(m, workload.WrapPFS(m.PFS), app); err != nil {
			t.Fatal(err)
		}
		if err := app.(*App).Err(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	reread := SmallConfig()
	recompute := SmallConfig()
	recompute.RecomputeIntegrals = true
	mRead := fast(reread)
	mComp := fast(recompute)
	if mRead.Eng.Now() >= mComp.Eng.Now() {
		t.Fatalf("reread (%v) not faster than recompute (%v) on fast I/O",
			mRead.Eng.Now(), mComp.Eng.Now())
	}
}

func TestRecomputeTimePerRecord(t *testing.T) {
	// 81,920 B / 56 B-per-integral x 500 FLOP / 50 MFLOP/s = ~14.6 ms.
	got := recomputeTimePerRecord()
	if got < 14*sim.Millisecond || got > 15*sim.Millisecond {
		t.Fatalf("recompute time %v, want ~14.6ms", got)
	}
}

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

var (
	paperTrace   []iotrace.Event
	paperMachine *workload.Machine
)

func paperRun(t testing.TB) []iotrace.Event {
	if paperTrace == nil {
		paperTrace, paperMachine = runHTF(t, DefaultConfig())
	}
	return paperTrace
}

func phase(t testing.TB, ph iotrace.Phase) []iotrace.Event {
	return analysis.FilterPhase(paperRun(t), ph)
}

func TestPsetupCounts(t *testing.T) {
	s := analysis.Summarize(phase(t, PhasePsetup))
	cases := map[string]int64{
		"Read": 371, "Write": 452, "Seek": 2, "Open": 4, "Close": 3,
	}
	for label, want := range cases {
		row := s.Row(label)
		if row == nil || row.Count != want {
			t.Errorf("psetup %s = %v, want %d (Table 5)", label, row, want)
		}
	}
	// Seek volume 53 bytes (26 + 27) — exactly the paper's value.
	if v := s.Row("Seek").Volume; v != 53 {
		t.Errorf("psetup seek volume %d, want 53", v)
	}
}

func TestPsetupSizesAndVolumes(t *testing.T) {
	events := phase(t, PhasePsetup)
	sizes := analysis.Sizes(events)
	rb := sizes.Read.Buckets()
	if rb[0] != 151 || rb[1] != 220 || rb[2] != 0 || rb[3] != 0 {
		t.Errorf("psetup read buckets %v, want [151 220 0 0] (Table 6)", rb)
	}
	wb := sizes.Write.Buckets()
	if wb[0] != 218 || wb[1] != 234 || wb[2] != 0 || wb[3] != 0 {
		t.Errorf("psetup write buckets %v, want [218 234 0 0] (Table 6)", wb)
	}
	s := analysis.Summarize(events)
	if r := s.Row("Read").Volume; r < 3_300_000 || r > 3_700_000 {
		t.Errorf("psetup read volume %d, paper 3,522,497", r)
	}
	if w := s.Row("Write").Volume; w < 3_500_000 || w > 4_000_000 {
		t.Errorf("psetup write volume %d, paper 3,744,872", w)
	}
}

func TestPargosCounts(t *testing.T) {
	s := analysis.Summarize(phase(t, PhasePargos))
	cases := map[string]int64{
		"Read": 145, "Write": 8535, "Seek": 130, "Open": 130, "Close": 129,
		"Lsize": 128, "Forflush": 8657,
	}
	for label, want := range cases {
		row := s.Row(label)
		if row == nil || row.Count != want {
			t.Errorf("pargos %s = %v, want %d (Table 5)", label, row, want)
		}
	}
	if v := s.Row("Seek").Volume; v != 0 {
		t.Errorf("pargos seek volume %d, want 0", v)
	}
	// Write volume: paper 698,958,109; ours 8,532 x 81,920 + 34,000.
	if w := s.Row("Write").Volume; w < 695_000_000 || w > 702_000_000 {
		t.Errorf("pargos write volume %d", w)
	}
}

func TestPargosSizes(t *testing.T) {
	sizes := analysis.Sizes(phase(t, PhasePargos))
	rb := sizes.Read.Buckets()
	if rb[0] != 143 || rb[1] != 2 || rb[2] != 0 || rb[3] != 0 {
		t.Errorf("pargos read buckets %v, want [143 2 0 0]", rb)
	}
	wb := sizes.Write.Buckets()
	if wb[0] != 2 || wb[1] != 1 || wb[2] != 8532 || wb[3] != 0 {
		t.Errorf("pargos write buckets %v, want [2 1 8532 0]", wb)
	}
}

func TestPscfCounts(t *testing.T) {
	s := analysis.Summarize(phase(t, PhasePscf))
	cases := map[string]int64{
		"Read": 51499, "Write": 207, "Seek": 813, "Open": 157, "Close": 156,
	}
	for label, want := range cases {
		row := s.Row(label)
		if row == nil || row.Count != want {
			t.Errorf("pscf %s = %v, want %d (Table 5)", label, row, want)
		}
	}
}

func TestPscfSizesAndVolumes(t *testing.T) {
	events := phase(t, PhasePscf)
	sizes := analysis.Sizes(events)
	rb := sizes.Read.Buckets()
	if rb[0] != 165 || rb[1] != 109 || rb[2] != 51225 || rb[3] != 0 {
		t.Errorf("pscf read buckets %v, want [165 109 51225 0]", rb)
	}
	wb := sizes.Write.Buckets()
	if wb[0] != 43 || wb[1] != 158 || wb[2] != 6 || wb[3] != 0 {
		t.Errorf("pscf write buckets %v, want [43 158 6 0]", wb)
	}
	s := analysis.Summarize(events)
	// Read volume: paper 4,201,634,304.
	if r := s.Row("Read").Volume; r < 4_150_000_000 || r > 4_250_000_000 {
		t.Errorf("pscf read volume %d", r)
	}
	// Seek volume ("distance"): paper 3,495,198,798 = 5 rewinds x ~700 MB.
	if v := s.Row("Seek").Volume; v < 3_300_000_000 || v > 3_700_000_000 {
		t.Errorf("pscf seek volume %d", v)
	}
}

func TestTimeShapes(t *testing.T) {
	// The headline shape claims of Table 5.
	psetup := analysis.Summarize(phase(t, PhasePsetup))
	if o := psetup.Row("Open"); o.Pct < 35 {
		t.Errorf("psetup open pct %.1f, paper 57.0 (dominant)", o.Pct)
	}
	if r, w := psetup.Row("Read"), psetup.Row("Write"); r.NodeTime <= w.NodeTime {
		t.Errorf("psetup reads (%v) should cost more than buffered writes (%v)",
			r.NodeTime, w.NodeTime)
	}

	pargos := analysis.Summarize(phase(t, PhasePargos))
	if o := pargos.Row("Open"); o.Pct < 45 || o.Pct > 80 {
		t.Errorf("pargos open pct %.1f, paper 63.4 (dominant: the create storm)", o.Pct)
	}
	if w := pargos.Row("Write"); w.Pct < 18 || w.Pct > 45 {
		t.Errorf("pargos write pct %.1f, paper 31.2", w.Pct)
	}

	pscf := analysis.Summarize(phase(t, PhasePscf))
	if r := pscf.Row("Read"); r.Pct < 90 {
		t.Errorf("pscf read pct %.1f, paper 98.4 (dominant)", r.Pct)
	}
}

func TestProgramWallClocks(t *testing.T) {
	events := paperRun(t)
	bounds := func(phase iotrace.Phase) (sim.Time, sim.Time) {
		ph := analysis.FilterPhase(events, phase)
		first, last := ph[0].Start, ph[0].End
		for _, e := range ph {
			if e.Start < first {
				first = e.Start
			}
			if e.End > last {
				last = e.End
			}
		}
		return first, last
	}
	_, psetupEnd := bounds(PhasePsetup)
	pargosStart, pargosEnd := bounds(PhasePargos)
	pscfStart, pscfEnd := bounds(PhasePscf)
	// Paper: 127 s, 1173 s, 1008 s. Accept generous bands — the split
	// between compute and I/O within each program is estimated.
	if s := psetupEnd.Seconds(); s < 80 || s > 200 {
		t.Errorf("psetup ends at %.0f s, paper ~127 s", s)
	}
	if d := (pargosEnd - pargosStart).Seconds(); d < 900 || d > 1500 {
		t.Errorf("pargos spans %.0f s, paper ~1173 s", d)
	}
	if d := (pscfEnd - pscfStart).Seconds(); d < 750 || d > 1350 {
		t.Errorf("pscf spans %.0f s, paper ~1008 s", d)
	}
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
	s := analysis.Summarize(analysis.FilterPhase(events, PhasePscf))
	var recReads int64
	for _, e := range analysis.FilterPhase(events, PhasePscf) {
		if e.Op == iotrace.OpRead && e.Bytes == recordBytes {
			recReads++
		}
	}
	if recReads != 2*36+3 {
		t.Errorf("pscf record reads %d, want 75", recReads)
	}
	_ = s
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

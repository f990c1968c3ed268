package render

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
	"repro/internal/workload"
)

func runRENDER(t testing.TB, cfg Config) ([]iotrace.Event, *workload.Machine) {
	t.Helper()
	mc := MachineConfig()
	mc.ComputeNodes = cfg.RenderNodes + 1
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

var (
	paperTrace   []iotrace.Event
	paperMachine *workload.Machine
)

func paperRun(t testing.TB) []iotrace.Event {
	if paperTrace == nil {
		paperTrace, paperMachine = runRENDER(t, DefaultConfig())
	}
	return paperTrace
}

func TestPaperOperationCounts(t *testing.T) {
	s := analysis.Summarize(paperRun(t))
	cases := map[string]int64{
		"Read":       121,
		"AsynchRead": 436,
		"I/O Wait":   436,
		"Write":      300,
		"Seek":       4,
		"Open":       106,
		"Close":      101,
	}
	for label, want := range cases {
		row := s.Row(label)
		if row == nil {
			t.Fatalf("missing row %s", label)
		}
		if row.Count != want {
			t.Errorf("%s count = %d, want %d (Table 3)", label, row.Count, want)
		}
	}
}

func TestPaperVolumes(t *testing.T) {
	s := analysis.Summarize(paperRun(t))
	// Async read volume: paper 880,849,125; ours 150x3MB + 286x1.5MB.
	ar := s.Row("AsynchRead").Volume
	if ar < 870_000_000 || ar > 890_000_000 {
		t.Errorf("async read volume %d, paper 880,849,125", ar)
	}
	// Small-read volume: paper 8,457 bytes.
	if r := s.Row("Read").Volume; r < 8000 || r > 9000 {
		t.Errorf("read volume %d, paper 8,457", r)
	}
	// Write volume: paper 98,305,400 — ours exact.
	if w := s.Row("Write").Volume; w != 98_305_400 {
		t.Errorf("write volume %d, paper 98,305,400", w)
	}
	// Seeks move nothing.
	if sk := s.Row("Seek").Volume; sk != 0 {
		t.Errorf("seek volume %d, paper 0", sk)
	}
}

func TestPaperSizeBuckets(t *testing.T) {
	sizes := analysis.Sizes(paperRun(t))
	rb := sizes.Read.Buckets()
	if rb[0] != 121 || rb[1] != 0 || rb[2] != 0 || rb[3] != 436 {
		t.Errorf("read buckets %v, want [121 0 0 436] (Table 4)", rb)
	}
	wb := sizes.Write.Buckets()
	if wb[0] != 200 || wb[1] != 0 || wb[2] != 0 || wb[3] != 100 {
		t.Errorf("write buckets %v, want [200 0 0 100] (Table 4)", wb)
	}
}

func TestPaperTimeShape(t *testing.T) {
	s := analysis.Summarize(paperRun(t))
	// Table 3 shape: iowait dominates (~54%), then writes and opens
	// (~19-20% each); small reads negligible; async issue a few percent.
	iowait := s.Row("I/O Wait")
	if iowait.Pct < 40 || iowait.Pct > 65 {
		t.Errorf("iowait pct %.1f, paper 53.7", iowait.Pct)
	}
	if w := s.Row("Write"); w.Pct < 10 || w.Pct > 30 {
		t.Errorf("write pct %.1f, paper 19.3", w.Pct)
	}
	if o := s.Row("Open"); o.Pct < 10 || o.Pct > 30 {
		t.Errorf("open pct %.1f, paper 19.9", o.Pct)
	}
	if r := s.Row("Read"); r.Pct > 1 {
		t.Errorf("read pct %.2f, paper 0.10", r.Pct)
	}
	if ar := s.Row("AsynchRead"); ar.Pct > 8 {
		t.Errorf("async issue pct %.2f, paper 2.79", ar.Pct)
	}
}

func TestPaperWallClockAndPhaseTransition(t *testing.T) {
	events := paperRun(t)
	wall := paperMachine.Eng.Now().Seconds()
	// ~470 s for initialization plus 100 frames.
	if wall < 380 || wall > 600 {
		t.Errorf("wall clock %.0f s, paper ~470 s", wall)
	}
	// Figure 6: pronounced transition from the large-read initialization to
	// the render phase at ~210 s (accept 150-280).
	var lastInit sim.Time
	for _, e := range events {
		if e.Phase == PhaseInit && e.End > lastInit {
			lastInit = e.End
		}
	}
	if s := lastInit.Seconds(); s < 150 || s > 280 {
		t.Errorf("initialization ends at %.0f s, paper ~210 s", s)
	}
}

func TestInitThroughputNear9MBps(t *testing.T) {
	// §6.2: the explicit prefetching achieves ~9.5 MB/s read throughput.
	events := analysis.FilterPhase(paperRun(t), PhaseInit)
	reads := analysis.OpTimeline(events, iotrace.OpAsyncRead)
	first := reads[0].T
	var lastDone sim.Time
	for _, e := range events {
		if (e.Op == iotrace.OpIOWait || e.Op == iotrace.OpAsyncRead) && e.End > lastDone {
			lastDone = e.End
		}
	}
	tput := analysis.Throughput(reads, lastDone-first) / 1e6
	if tput < 7 || tput > 13 {
		t.Errorf("init read throughput %.1f MB/s, paper ~9.5", tput)
	}
}

func TestReadSizesShrinkAcrossInit(t *testing.T) {
	// Figure 6: first 3 MB requests, then 1.5 MB.
	events := analysis.FilterPhase(paperRun(t), PhaseInit)
	reads := analysis.OpTimeline(events, iotrace.OpAsyncRead)
	if reads[0].Y != 3<<20 {
		t.Errorf("first read %d bytes, want 3 MB", reads[0].Y)
	}
	if last := reads[len(reads)-1].Y; last != 3<<19 {
		t.Errorf("last init read %d bytes, want 1.5 MB", last)
	}
}

func TestOutputStaircase(t *testing.T) {
	// Figure 8: each output file is written exactly once (in its entirety)
	// and file ids ascend with time.
	events := analysis.FilterPhase(paperRun(t), PhaseRender)
	type span struct{ first, last sim.Time }
	outputs := map[iotrace.FileID]*span{}
	var order []iotrace.FileID
	for _, e := range events {
		if e.Op != iotrace.OpWrite {
			continue
		}
		s, ok := outputs[e.File]
		if !ok {
			s = &span{first: e.Start}
			outputs[e.File] = s
			order = append(order, e.File)
		}
		s.last = e.End
	}
	if len(outputs) != 100 {
		t.Fatalf("%d output files, want 100", len(outputs))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("output ids not ascending: %v", order[:i+1])
		}
		if outputs[order[i]].first < outputs[order[i-1]].last {
			t.Fatalf("output file %d written before %d finished", order[i], order[i-1])
		}
	}
}

func TestAllIOIsGatewayMediated(t *testing.T) {
	// §6.2: "all the input/output is mediated by the gateway node".
	for _, e := range paperRun(t) {
		if e.Node != 0 {
			t.Fatalf("I/O from node %d: %+v", e.Node, e)
		}
	}
}

func TestFrameCadenceSeveralSecondsPerFrame(t *testing.T) {
	// §6.2: "the current system requires several seconds per frame".
	events := analysis.FilterPhase(paperRun(t), PhaseRender)
	writes := analysis.WriteTimeline(events)
	big := writes[:0:0]
	for _, w := range writes {
		if w.Y >= 256*1024 {
			big = append(big, w)
		}
	}
	if len(big) != 100 {
		t.Fatalf("%d frame writes", len(big))
	}
	span := (big[len(big)-1].T - big[0].T).Seconds()
	perFrame := span / 99
	if perFrame < 1.5 || perFrame > 5 {
		t.Errorf("frame cadence %.2f s/frame, paper ~2.6", perFrame)
	}
}

func TestSmallConfigDeterministicAndStructured(t *testing.T) {
	run := func() sim.Time {
		_, m := runRENDER(t, SmallConfig())
		return m.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	events, _ := runRENDER(t, SmallConfig())
	s := analysis.Summarize(events)
	if got := s.Row("AsynchRead").Count; got != 10 {
		t.Errorf("async reads %d, want 10", got)
	}
	if got := s.Row("Write").Count; got != 15 {
		t.Errorf("writes %d, want 15", got)
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := []Config{
		{},
		{RenderNodes: 0, Frames: 1, Terrain: []TerrainFile{{1, 1}}},
		{RenderNodes: 4, Frames: 1, Terrain: nil},
		{RenderNodes: 4, Frames: 1, Terrain: []TerrainFile{{0, 1}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

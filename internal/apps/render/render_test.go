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
		paperTrace, _ = runRENDER(t, DefaultConfig())
	}
	return paperTrace
}

func TestInitEndsNear210s(t *testing.T) {
	// Figure 6: pronounced transition from the large-read initialization to
	// the render phase at ~210 s (accept 150-280).
	var lastInit sim.Time
	for _, e := range analysis.FilterPhase(paperRun(t), PhaseInit) {
		lastInit = max(lastInit, e.End)
	}
	if s := lastInit.Seconds(); s < 150 || s > 280 {
		t.Errorf("initialization ends at %.0f s, paper ~210 s", s)
	}
}

func TestInitThroughputNear9MBps(t *testing.T) {
	// §6.2: the explicit prefetching achieves ~9.5 MB/s read throughput.
	tput := InitReadThroughput(analysis.FilterPhase(paperRun(t), PhaseInit)) / 1e6
	if tput < 7 || tput > 13 {
		t.Errorf("init read throughput %.1f MB/s, paper ~9.5", tput)
	}
}

func TestRenderThroughputHelper(t *testing.T) {
	events, _ := runRENDER(t, SmallConfig())
	if tput := InitReadThroughput(analysis.FilterPhase(events, PhaseInit)); tput <= 0 {
		t.Fatalf("throughput %f", tput)
	}
	// The helper returns zero for events without an asynchronous read.
	if tput := InitReadThroughput(analysis.FilterPhase(events, PhaseRender)); tput != 0 {
		t.Fatalf("rendering phase reported init throughput %f", tput)
	}
}

func TestReadSizesShrinkAcrossInit(t *testing.T) {
	// Figure 6: first 3 MB requests, then 1.5 MB.
	events := analysis.FilterPhase(paperRun(t), PhaseInit)
	reads := analysis.OpTimeline(events, iotrace.OpAsyncRead)
	if first := reads.At(0).Y; first != 3<<20 {
		t.Errorf("first read %d bytes, want 3 MB", first)
	}
	if last := reads.At(reads.Len() - 1).Y; last != 3<<19 {
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
	var big []analysis.Point
	for i := range writes.Len() {
		if w := writes.At(i); w.Y >= 256*1024 {
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
		if _, err := cfg.New(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

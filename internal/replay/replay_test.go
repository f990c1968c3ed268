package replay

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallApps are the applications whose reduced runs the replay tests capture.
var smallApps = []core.AppID{core.ESCAT, core.RENDER, core.HTF}

// smallRun runs app's reduced study: its trace and the machine it ran on.
func smallRun(t testing.TB, app core.AppID) (*core.Report, workload.MachineConfig) {
	t.Helper()
	s := core.SmallStudy(app)
	r, err := core.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return r, s.Machine
}

// smallTrace captures a reduced ESCAT run's application trace.
func smallTrace(t testing.TB) []iotrace.Event {
	t.Helper()
	r, _ := smallRun(t, core.ESCAT)
	return r.Events
}

// escatMachine is the machine the reduced ESCAT run uses.
func escatMachine() workload.MachineConfig { return core.SmallStudy(core.ESCAT).Machine }

// run replays cfg on mc through core.Run.
func run(t testing.TB, cfg Config, mc workload.MachineConfig) *core.Report {
	t.Helper()
	r, err := core.Run(core.Study{App: cfg, Machine: mc, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// opTally is each operation class's count and bytes over a trace, an
// asynchronous read tallied as a read.
func opTally(events []iotrace.Event) [iotrace.NumOps][2]int64 {
	var tally [iotrace.NumOps][2]int64
	for _, e := range events {
		op := e.Op
		if op == iotrace.OpAsyncRead {
			op = iotrace.OpRead
		}
		tally[op][0]++
		tally[op][1] += e.Bytes
	}
	return tally
}

// TestReplayPreservesLogicalStream is the replay oracle: replaying each
// small app's own trace on the machine it ran on, with its think time,
// keeps its request-size table, its Read-plus-AsynchRead count and bytes,
// and its Write, Open, Close, Lsize and Forflush rows. Seeks, AsynchRead
// and I/O Wait rows do not survive a replay (see the package doc), so the
// replay records none of them.
func TestReplayPreservesLogicalStream(t *testing.T) {
	kept := []iotrace.Op{iotrace.OpRead, iotrace.OpWrite, iotrace.OpOpen,
		iotrace.OpClose, iotrace.OpLsize, iotrace.OpFlush}
	for _, app := range smallApps {
		orig, mc := smallRun(t, app)
		cfg := Config{Trace: orig.Events, PreserveThinkTime: true}
		if n := cfg.Skipped(); n != 0 {
			t.Fatalf("%s: skipped %d records", app, n)
		}
		r := run(t, cfg, mc)
		for _, h := range [][2][]int64{
			{orig.Sizes.Read.Buckets(), r.Sizes.Read.Buckets()},
			{orig.Sizes.Write.Buckets(), r.Sizes.Write.Buckets()},
		} {
			if !slices.Equal(h[0], h[1]) {
				t.Errorf("%s: size buckets %v, want %v", app, h[1], h[0])
			}
		}
		want, got := opTally(orig.Events), opTally(r.Events)
		for _, op := range kept {
			if got[op] != want[op] {
				t.Errorf("%s %v: replayed count and bytes %v, want %v", app, op, got[op], want[op])
			}
		}
		for _, op := range []iotrace.Op{iotrace.OpSeek, iotrace.OpAsyncRead, iotrace.OpIOWait} {
			if row := r.Summary.Row(op.String()); row != nil {
				t.Errorf("%s: replay has a %s row: %+v", app, op, *row)
			}
		}
		if r.Wall <= 0 {
			t.Fatalf("%s: no wall clock", app)
		}
	}
}

func TestReplayWithoutThinkTimeIsFaster(t *testing.T) {
	trace := smallTrace(t)
	with := run(t, Config{Trace: trace, PreserveThinkTime: true}, escatMachine())
	without := run(t, Config{Trace: trace}, escatMachine())
	if without.Wall >= with.Wall {
		t.Fatalf("back-to-back replay (%v) not faster than think-time replay (%v)",
			without.Wall, with.Wall)
	}
}

func TestReplayMoreIONodesCutsIOTime(t *testing.T) {
	// Neither machine names a compute partition: the replay sizes it, and
	// each machine's PFS is used as given.
	cfg := Config{Trace: smallTrace(t)}
	narrow, wide := escatMachine(), escatMachine()
	narrow.ComputeNodes, wide.ComputeNodes = 0, 0
	narrow.PFS.IONodes = 1
	wide.PFS.IONodes = 16
	nres, wres := run(t, cfg, narrow), run(t, cfg, wide)
	if wres.Wall >= nres.Wall {
		t.Fatalf("16 I/O nodes (%v) not faster than 1 (%v)", wres.Wall, nres.Wall)
	}
}

func TestReplayCostModelSweep(t *testing.T) {
	// Replaying on a machine with free metadata operations must shrink
	// open/close time to ~client overhead.
	mc := escatMachine()
	mc.PFS.Cost.OpenService = 0
	mc.PFS.Cost.CloseService = 0
	r := run(t, Config{Trace: smallTrace(t), PreserveThinkTime: true}, mc)
	open := r.Summary.Row("Open")
	if open == nil {
		t.Fatal("no open row")
	}
	perOpen := open.NodeTime.Seconds() / float64(open.Count)
	if perOpen > 0.01 {
		t.Fatalf("free opens still cost %.3fs each", perOpen)
	}
}

func TestReplayRejectsBadInputs(t *testing.T) {
	if _, err := (Config{}).New(); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("empty trace: got %v", err)
	}
	trace := smallTrace(t)
	// The trace uses 8 nodes: a 2-node partition misses some, as a
	// setting and as a resize.
	undersized := Config{Trace: trace, Nodes: 2}
	if _, err := core.Run(core.Study{App: undersized, Machine: escatMachine()}); err == nil ||
		!strings.Contains(err.Error(), "trace uses node 7, machine has 2 nodes") {
		t.Errorf("undersized machine: got %v", err)
	}
	if _, err := (Config{Trace: trace}).WithNodes(2); err == nil {
		t.Error("WithNodes(2) accepted")
	}
	if c, err := (Config{Trace: trace}).WithNodes(16); err != nil || c.ComputeNodes() != 16 {
		t.Errorf("WithNodes(16): %v, %v", c, err)
	}

	for _, j := range []float64{-1, 1.5, 5, math.NaN()} {
		if _, err := (Config{Trace: trace, ThinkJitter: j}).New(); err == nil ||
			!strings.Contains(err.Error(), "want a fraction in [0, 1]") {
			t.Errorf("jitter %v: got %v, want a range error", j, err)
		}
	}
}

func TestReplaySlicedTraceSkipsGracefully(t *testing.T) {
	// A trace slice starting mid-run has waits without issues; replay
	// counts them as skipped instead of failing.
	trace := []iotrace.Event{
		{Node: 0, Op: iotrace.OpIOWait, File: 1, Start: 0, End: sim.Second},
		{Node: 0, Op: iotrace.OpRead, File: 1, Offset: 0, Bytes: 1000,
			Start: sim.Second, End: 2 * sim.Second},
	}
	cfg := Config{Trace: trace, Nodes: 2}
	if n := cfg.Skipped(); n != 1 {
		t.Fatalf("skipped %d, want 1", n)
	}
	r := run(t, cfg, workload.MachineConfig{PFS: pfs.DefaultConfig()})
	if len(r.Events) != 1 || cap(r.Events) != 1 {
		t.Fatalf("replayed %d events into cap %d, want the one read", len(r.Events), cap(r.Events))
	}
}

func TestReplayThinkJitterSeeded(t *testing.T) {
	trace := smallTrace(t)
	replayed := func(jitter float64, seed uint64) sim.Time {
		cfg := Config{Trace: trace, PreserveThinkTime: true, ThinkJitter: jitter, Seed: seed}
		return run(t, cfg, escatMachine()).Wall
	}
	exact := replayed(0, 0)
	a, b, c := replayed(0.3, 1), replayed(0.3, 1), replayed(0.3, 2)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave identical wall clock %v", a)
	}
	if a == exact && c == exact {
		t.Error("jitter had no effect on the wall clock")
	}
}

func TestReplayAsyncReadsComplete(t *testing.T) {
	trace := []iotrace.Event{
		{Node: 0, Op: iotrace.OpAsyncRead, File: 1, Offset: 0, Bytes: 1 << 20,
			Start: 0, End: sim.Millisecond},
		{Node: 0, Op: iotrace.OpAsyncRead, File: 1, Offset: 1 << 20, Bytes: 1 << 20,
			Start: sim.Millisecond, End: 2 * sim.Millisecond},
		{Node: 0, Op: iotrace.OpIOWait, File: 1, Start: 2 * sim.Millisecond, End: sim.Second},
		// Second wait intentionally missing: replay drains it at the end.
	}
	r := run(t, Config{Trace: trace, Nodes: 2}, workload.MachineConfig{PFS: pfs.DefaultConfig()})
	reads := r.Summary.Row("Read")
	if reads == nil || reads.Count != 2 || reads.Volume != 2<<20 {
		t.Fatalf("replayed reads %+v", reads)
	}
}

// TestReplayTraceNeverRegrows checks the replayed trace is captured into a
// buffer of exactly the events the replay records: the trace minus its
// seeks, its waits and its skipped records, counted before the run. RENDER
// exercises the asynchronous reads and their waits.
func TestReplayTraceNeverRegrows(t *testing.T) {
	for _, app := range smallApps {
		orig, mc := smallRun(t, app)
		r := run(t, Config{Trace: orig.Events, PreserveThinkTime: true}, mc)
		if len(r.Events) == 0 || cap(r.Events) != len(r.Events) {
			t.Errorf("%s: replayed %d events into cap %d, want an exact fit",
				app, len(r.Events), cap(r.Events))
		}
	}
}

// TestReplayFailedAccessFailsTheRun: an access the machine refuses (here a
// zero-byte read at the end of its file) is the replay's node error, which
// fails the run, as a failed operation does in every other app.
func TestReplayFailedAccessFailsTheRun(t *testing.T) {
	trace := []iotrace.Event{
		{Node: 0, Op: iotrace.OpWrite, File: 1, Offset: 0, Bytes: 1000, End: sim.Millisecond},
		{Node: 0, Op: iotrace.OpRead, File: 1, Offset: 1000, Start: sim.Millisecond, End: 2 * sim.Millisecond},
	}
	cfg := Config{Trace: trace}
	if n := cfg.Skipped(); n != 0 {
		t.Fatalf("skipped %d, want 0", n)
	}
	_, err := core.Run(core.Study{App: cfg, Machine: workload.MachineConfig{PFS: pfs.DefaultConfig()}})
	if err == nil || !strings.Contains(err.Error(), "replay: node 0: ") || !errors.Is(err, pfs.ErrEOF) {
		t.Fatalf("got %v, want node 0's end-of-file error", err)
	}
}

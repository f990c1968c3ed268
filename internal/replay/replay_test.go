package replay

import (
	"testing"

	"repro/internal/apps/escat"
	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallTrace captures a reduced ESCAT run's application trace.
func smallTrace(t testing.TB) []iotrace.Event {
	t.Helper()
	r, err := core.Run(core.SmallStudy(core.ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	return r.Events
}

func baseOptions() Options {
	mc := escat.MachineConfig()
	mc.ComputeNodes = escat.SmallConfig().Nodes
	return Options{Machine: mc, PreserveThinkTime: true}
}

func TestReplayPreservesLogicalStream(t *testing.T) {
	trace := smallTrace(t)
	res, err := Run(trace, baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 0 {
		t.Fatalf("skipped %d records", res.Skipped)
	}
	// Data-moving counts and bytes survive the replay exactly.
	orig := map[iotrace.Op][2]int64{}
	replayed := map[iotrace.Op][2]int64{}
	for _, e := range trace {
		if e.Op.Moves() {
			v := orig[e.Op]
			orig[e.Op] = [2]int64{v[0] + 1, v[1] + e.Bytes}
		}
	}
	for _, e := range res.Events {
		if e.Op.Moves() {
			v := replayed[e.Op]
			replayed[e.Op] = [2]int64{v[0] + 1, v[1] + e.Bytes}
		}
	}
	for op, want := range orig {
		if replayed[op] != want {
			t.Errorf("%v: replayed %v, want %v", op, replayed[op], want)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestReplayWithoutThinkTimeIsFaster(t *testing.T) {
	trace := smallTrace(t)
	with, err := Run(trace, baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := baseOptions()
	opt.PreserveThinkTime = false
	without, err := Run(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	if without.Makespan >= with.Makespan {
		t.Fatalf("back-to-back replay (%v) not faster than think-time replay (%v)",
			without.Makespan, with.Makespan)
	}
}

func TestReplayMoreIONodesCutsIOTime(t *testing.T) {
	trace := smallTrace(t)
	opt := baseOptions()
	opt.PreserveThinkTime = false

	narrow := opt
	narrow.Machine.PFS.IONodes = 1
	wide := opt
	wide.Machine.PFS.IONodes = 16

	nres, err := Run(trace, narrow)
	if err != nil {
		t.Fatal(err)
	}
	wres, err := Run(trace, wide)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Makespan >= nres.Makespan {
		t.Fatalf("16 I/O nodes (%v) not faster than 1 (%v)", wres.Makespan, nres.Makespan)
	}
}

func TestReplayCostModelSweep(t *testing.T) {
	// Replaying on a machine with free metadata operations must shrink
	// open/close time to ~client overhead.
	trace := smallTrace(t)
	opt := baseOptions()
	opt.Machine.PFS.Cost.OpenService = 0
	opt.Machine.PFS.Cost.CloseService = 0
	res, err := Run(trace, opt)
	if err != nil {
		t.Fatal(err)
	}
	open := res.Summary.Row("Open")
	if open == nil {
		t.Fatal("no open row")
	}
	perOpen := open.NodeTime.Seconds() / float64(open.Count)
	if perOpen > 0.01 {
		t.Fatalf("free opens still cost %.3fs each", perOpen)
	}
}

func TestReplayRejectsBadInputs(t *testing.T) {
	if _, err := Run(nil, baseOptions()); err == nil {
		t.Fatal("empty trace accepted")
	}
	trace := smallTrace(t)
	opt := baseOptions()
	opt.Machine.ComputeNodes = 2 // trace uses 8 nodes
	if _, err := Run(trace, opt); err == nil {
		t.Fatal("undersized machine accepted")
	}
}

func TestReplayDefaultsMachine(t *testing.T) {
	trace := smallTrace(t)
	res, err := Run(trace, Options{PreserveThinkTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan with defaulted machine")
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
	mc := workload.MachineConfig{ComputeNodes: 2, PFS: pfs.DefaultConfig()}
	res, err := Run(trace, Options{Machine: mc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 {
		t.Fatalf("skipped %d, want 1", res.Skipped)
	}
}

func TestReplayThinkJitterSeeded(t *testing.T) {
	trace := smallTrace(t)
	jittered := func(seed uint64) sim.Time {
		opt := baseOptions()
		opt.ThinkJitter = 0.3
		opt.Seed = seed
		res, err := Run(trace, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	exact, err := Run(trace, baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := jittered(1), jittered(1), jittered(2)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave identical makespan %v", a)
	}
	if a == exact.Makespan && c == exact.Makespan {
		t.Error("jitter had no effect on makespan")
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
	mc := workload.MachineConfig{ComputeNodes: 2, PFS: pfs.DefaultConfig()}
	res, err := Run(trace, Options{Machine: mc})
	if err != nil {
		t.Fatal(err)
	}
	reads := res.Summary.Row("Read")
	if reads == nil || reads.Count != 2 || reads.Volume != 2<<20 {
		t.Fatalf("replayed reads %+v", reads)
	}
}

// TestReplayTraceNeverRegrows checks the replayed trace is captured into the
// buffer reserved from the input's length: every record yields at most one
// event, so capture never reallocates. RENDER exercises the asynchronous
// reads and their waits.
func TestReplayTraceNeverRegrows(t *testing.T) {
	for _, app := range []core.AppID{core.ESCAT, core.RENDER} {
		s := core.SmallStudy(app)
		r, err := core.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(r.Events, Options{Machine: s.Machine, PreserveThinkTime: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 || cap(res.Events) != len(r.Events) {
			t.Errorf("%s: replayed %d events into cap %d, want the reserved %d",
				app, len(res.Events), cap(res.Events), len(r.Events))
		}
	}
}

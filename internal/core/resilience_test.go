package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sim"
)

func TestResilienceSummaryFromResilientRun(t *testing.T) {
	rr, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	r := rr.Resilience()
	if r.Attempts != 2 || r.Failures != 1 {
		t.Errorf("attempts/failures = %d/%d, want 2/1", r.Attempts, r.Failures)
	}
	if r.Wall != rr.Wall || r.LostWork != rr.LostWork {
		t.Errorf("wall/lost = %v/%v, want %v/%v", r.Wall, r.LostWork, rr.Wall, rr.LostWork)
	}
	if r.Exposure.Outage <= 0 {
		t.Errorf("outage exposure = %v, want > 0", r.Exposure.Outage)
	}
	if r.Checkpoints != rr.Ckpt.Checkpoints || r.Restores != rr.Ckpt.Restores {
		t.Errorf("ckpt counters not carried: %+v vs %+v", r, rr.Ckpt)
	}
	text := analysis.RenderResilience(r)
	if !strings.Contains(text, "Resilience report:") ||
		!strings.Contains(text, "2 attempts, 1 failures") {
		t.Errorf("render:\n%s", text)
	}
}

func TestTradeoffSweepMonotoneLostWork(t *testing.T) {
	pts, err := TradeoffSweep(chaosStudy(), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	none, freq := pts[0], pts[1]
	if none.Checkpoints != 0 || none.Overhead != 0 {
		t.Errorf("interval-0 point has checkpoint activity: %+v", none)
	}
	if freq.Checkpoints < 2 || freq.Overhead <= 0 {
		t.Errorf("interval-2 point missing checkpoint activity: %+v", freq)
	}
	if none.LostWork <= freq.LostWork {
		t.Errorf("lost work: none=%v should exceed interval-2=%v",
			none.LostWork, freq.LostWork)
	}
	out := analysis.RenderTradeoff(pts)
	if !strings.Contains(out, "none") || !strings.Contains(out, "2") {
		t.Errorf("render:\n%s", out)
	}
}

// TradeoffSweep must not leak coordinator state between intervals: each run
// starts from scratch.
func TestTradeoffSweepIndependentRuns(t *testing.T) {
	pts, err := TradeoffSweep(chaosStudy(), []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0] != pts[1] {
		t.Errorf("identical intervals diverged: %+v vs %+v", pts[0], pts[1])
	}
	solo, err := RunResilient(func() ResilientStudy {
		rs := chaosStudy()
		rs.Ckpt = ckpt.Config{Interval: 2, BytesPerNode: 4096, FileName: "escat.ckpt"}
		return rs
	}())
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Wall != solo.Wall || pts[0].LostWork != solo.LostWork {
		t.Errorf("sweep point %+v differs from direct run wall=%v lost=%v",
			pts[0], solo.Wall, solo.LostWork)
	}
}

// Run and a one-attempt RunResilient go through the same attempt step, so a
// run that finishes in one attempt must report the same thing either way:
// wall clock, trace, incident timeline and repair summary.
func TestRunAndRunResilientAgree(t *testing.T) {
	s := replicatedStudy(ESCAT, 2)
	s.Faults = fault.Plan{Events: []fault.Event{{
		Kind: fault.IONodeOutage, At: 500 * sim.Millisecond, Node: 1, Duration: sim.Second,
	}}}
	s.FaultSeed = 3

	r, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rr, err := RunResilient(ResilientStudy{Study: s, MaxAttempts: 1})
	if err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
	f := rr.Final
	if r.Wall != f.Wall {
		t.Errorf("wall: Run %v, RunResilient %v", r.Wall, f.Wall)
	}
	if len(r.Events) != len(f.Events) || traceDigest(r.Events) != traceDigest(f.Events) {
		t.Errorf("traces differ: Run %d events %016x, RunResilient %d events %016x",
			len(r.Events), traceDigest(r.Events), len(f.Events), traceDigest(f.Events))
	}
	if len(r.Incidents) == 0 || r.Failover.Reroutes == 0 {
		t.Fatalf("the outage never bit: incidents %+v, failover %+v", r.Incidents, r.Failover)
	}
	if !reflect.DeepEqual(r.Incidents, f.Incidents) {
		t.Errorf("incidents:\n Run          %+v\n RunResilient %+v", r.Incidents, f.Incidents)
	}
	want, got := r.Resilience().Repair, rr.Resilience().Repair
	if want.Outages == 0 {
		t.Errorf("Run's repair summary counts no outages: %+v", want)
	}
	if want != got {
		t.Errorf("repair summary:\n Run          %+v\n RunResilient %+v", want, got)
	}
}

// TestRunAndRunResilientAgreeOnCachedWall: a cached study's write-behind
// keeps the engine clock running after the application's last operation, and
// both drivers still end the wall clock at that operation.
func TestRunAndRunResilientAgreeOnCachedWall(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Machine.PFS.Cache = cache.DefaultConfig()
	r, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rr, err := RunResilient(ResilientStudy{Study: s, MaxAttempts: 1})
	if err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
	if end := analysis.AppEnd(r.Events); r.Wall != end || rr.Wall != end {
		t.Errorf("wall: Run %v, RunResilient %v, application end %v", r.Wall, rr.Wall, end)
	}
}

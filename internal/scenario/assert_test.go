package scenario

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

func i64(v int64) *int64 { return &v }
func iptr(v int) *int    { return &v }

func TestMeasureOutcomes(t *testing.T) {
	if m := Measure(nil, nil); m.Outcome != OutcomeFailed {
		t.Fatalf("nil report: %v", m.Outcome)
	}

	ok := &core.ResilientReport{
		Final:    &core.Report{},
		Attempts: []core.Attempt{{}},
		Wall:     2 * sim.Second,
	}
	if m := Measure(ok, nil); m.Outcome != OutcomeOK || m.MakespanS != 2 {
		t.Fatalf("clean run: %+v", m)
	}

	degraded := &core.ResilientReport{
		Final:    &core.Report{},
		Attempts: []core.Attempt{{Failed: true, Err: "outage"}, {}},
		Wall:     5 * sim.Second,
	}
	if m := Measure(degraded, nil); m.Outcome != OutcomeDegraded || m.FailedAttempts != 1 {
		t.Fatalf("degraded run: %+v", m)
	}

	lost := &core.ResilientReport{
		Final:          &core.Report{},
		Attempts:       []core.Attempt{{}},
		BurstLostBytes: 512,
	}
	if m := Measure(lost, nil); m.Outcome != OutcomeDegraded || m.LostBytes != 512 {
		t.Fatalf("lost-bytes run: %+v", m)
	}

	exhausted := &core.ResilientReport{
		Attempts: []core.Attempt{{Failed: true, Err: "outage"}},
	}
	if m := Measure(exhausted, nil); m.Outcome != OutcomeFailed {
		t.Fatalf("exhausted run: %+v", m)
	}
}

func TestEvaluateBounds(t *testing.T) {
	m := Measurements{
		Outcome:        OutcomeDegraded,
		MakespanS:      10,
		P95ReadMs:      3,
		CacheHitRatio:  0.8,
		HasCache:       true,
		LostBytes:      100,
		FailedAttempts: 1,
		PhysRequests:   500,
	}
	a := &Assertions{
		Expected:          "degraded",
		MaxMakespanS:      20,
		MinMakespanS:      5,
		MaxP95ReadMs:      4,
		MinCacheHitRatio:  0.5,
		MaxLostBytes:      i64(200),
		MaxFailedAttempts: iptr(2),
		MaxPhysRequests:   1000,
	}
	checks := a.Evaluate(m)
	if len(checks) != 8 {
		t.Fatalf("want 8 checks, got %d: %+v", len(checks), checks)
	}
	if !Passed(checks) {
		t.Fatalf("all bounds hold but checks failed: %+v", checks)
	}

	// Flip each bound and confirm exactly that check trips.
	tight := &Assertions{
		Expected:          "ok",    // outcome is degraded
		MaxMakespanS:      9,       // 10 > 9
		MinMakespanS:      0,       // unchecked
		MaxP95ReadMs:      2,       // 3 > 2
		MinCacheHitRatio:  0.9,     // 0.8 < 0.9
		MaxLostBytes:      i64(50), // 100 > 50
		MaxFailedAttempts: iptr(0), // 1 > 0
		MaxPhysRequests:   400,     // 500 > 400
	}
	failed := map[string]bool{}
	for _, c := range tight.Evaluate(m) {
		if !c.Pass {
			failed[c.Name] = true
		}
	}
	for _, name := range []string{"expected", "max_makespan_s", "max_p95_read_ms",
		"min_cache_hit_ratio", "max_lost_bytes", "max_failed_attempts", "max_phys_requests"} {
		if !failed[name] {
			t.Fatalf("check %s should have failed: %v", name, failed)
		}
	}
	if failed["min_makespan_s"] {
		t.Fatal("zero-valued min_makespan_s should be unchecked")
	}
}

func TestEvaluateNilAndCacheGuard(t *testing.T) {
	var a *Assertions
	if checks := a.Evaluate(Measurements{}); len(checks) != 0 || !Passed(checks) {
		t.Fatalf("nil assertions: %+v", checks)
	}
	// A hit-ratio bound never passes without the cache measurement.
	b := &Assertions{MinCacheHitRatio: 0.1}
	checks := b.Evaluate(Measurements{CacheHitRatio: 0.9, HasCache: false})
	if Passed(checks) {
		t.Fatal("hit-ratio bound passed without a cache in the run")
	}
}

// TestExecuteFailingScenario runs a deliberately failing scenario end to end:
// the run is clean, the assertions demand the impossible.
func TestExecuteFailingScenario(t *testing.T) {
	s, err := Parse([]byte(`
name: doomed
workload:
  app: escat
assertions:
  expected: degraded
  max_makespan_s: 0.001
`), "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass() {
		t.Fatal("impossible assertions passed")
	}
	failed := map[string]bool{}
	for _, c := range res.Checks {
		if !c.Pass {
			failed[c.Name] = true
		}
	}
	if !failed["expected"] || !failed["max_makespan_s"] {
		t.Fatalf("wrong checks tripped: %+v", res.Checks)
	}
	out := RenderChecks(s.Name, res.M, res.Checks)
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "VIOLATED") {
		t.Fatalf("render does not surface the violation:\n%s", out)
	}
}

func TestExecutePassingScenario(t *testing.T) {
	s, err := Parse([]byte(`
name: clean
workload:
  app: escat
assertions:
  expected: ok
  max_failed_attempts: 0
`), "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Fatalf("clean run failed its assertions: %+v", res.Checks)
	}
	if res.M.Outcome != OutcomeOK {
		t.Fatalf("outcome: %v", res.M.Outcome)
	}
	out := RenderChecks(s.Name, res.M, res.Checks)
	if !strings.Contains(out, "PASS") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestP95ReadMsMatchesSortedReads checks p95ReadMs against the nearest-rank
// 95th percentile of the read and async-read durations, taken by sorting
// them, over a trace that mixes reads with other operations.
func TestP95ReadMsMatchesSortedReads(t *testing.T) {
	if got := p95ReadMs(nil); got != 0 {
		t.Fatalf("no reads: %v, want 0", got)
	}
	ops := []iotrace.Op{iotrace.OpRead, iotrace.OpWrite, iotrace.OpAsyncRead, iotrace.OpSeek}
	var events []iotrace.Event
	var durs []float64
	for i := 0; i < 97; i++ {
		op := ops[i%len(ops)]
		d := sim.Time((i*37)%101+1) * sim.Millisecond
		events = append(events, iotrace.Event{Op: op, Start: sim.Time(i) * sim.Second, End: sim.Time(i)*sim.Second + d})
		if op == iotrace.OpRead || op == iotrace.OpAsyncRead {
			durs = append(durs, d.Seconds()*1e3)
		}
	}
	sort.Float64s(durs)
	want := durs[int(math.Ceil(0.95*float64(len(durs))))-1]
	if got := p95ReadMs(events); got != want {
		t.Fatalf("p95ReadMs = %v, want %v", got, want)
	}
}

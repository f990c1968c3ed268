package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/ppfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestSmallStudiesRunForAllApps(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(string(app), func(t *testing.T) {
			r, err := Run(SmallStudy(app))
			if err != nil {
				t.Fatal(err)
			}
			if r.App != app || r.Wall <= 0 || len(r.Events) == 0 {
				t.Fatalf("report %+v", r)
			}
			if r.Summary.Total.Count == 0 {
				t.Fatal("empty summary")
			}
			if len(r.Tables()) == 0 {
				t.Fatal("no tables")
			}
			if len(r.Figures()) == 0 {
				t.Fatal("no figures")
			}
		})
	}
}

// TestUnknownAppRejected: an app ID PaperStudy does not know leaves the
// study without an app, which Run and RunResilient reject.
func TestUnknownAppRejected(t *testing.T) {
	s := PaperStudy("bogus")
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted a study without an app")
	}
	if _, err := RunResilient(ResilientStudy{Study: s}); err == nil {
		t.Fatal("RunResilient accepted a study without an app")
	}
}

// TestZeroMachineRejected: a study without a machine is an error; the
// app sizes only the compute partition, and nothing fills in the rest.
func TestZeroMachineRejected(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Machine = workload.MachineConfig{}
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted a study without a machine")
	}
	if _, err := RunResilient(ResilientStudy{Study: s}); err == nil {
		t.Fatal("RunResilient accepted a study without a machine")
	}
}

func TestFigureLookup(t *testing.T) {
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := r.Figure(4)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "figure-04" || fig.Points.Len() == 0 {
		t.Fatalf("figure %+v", fig)
	}
	if _, err := r.Figure(6); err == nil {
		t.Fatal("ESCAT produced RENDER's figure 6")
	}
}

// sameTimeline reports whether two timelines hold the same points in the
// same order.
func sameTimeline(a, b analysis.Timeline) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// TestFigureMatchesFigures holds Figure(n), which extracts one figure, to
// the matching entry of Figures for every figure of every app.
func TestFigureMatchesFigures(t *testing.T) {
	for _, app := range Apps() {
		r, err := Run(SmallStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		figs := r.Figures()
		if len(figs) == 0 {
			t.Fatalf("%s: no figures", app)
		}
		for _, want := range figs {
			var n int
			if _, err := fmt.Sscanf(want.ID, "figure-%d", &n); err != nil {
				t.Fatal(err)
			}
			got, err := r.Figure(n)
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != want.ID || got.Title != want.Title || got.LogY != want.LogY ||
				!sameTimeline(got.Points, want.Points) {
				t.Errorf("%s: Figure(%d) = %s %q (%d points), Figures has %s %q (%d points)",
					app, n, got.ID, got.Title, got.Points.Len(), want.ID, want.Title, want.Points.Len())
			}
		}
	}
}

func TestHTFFigureSetComplete(t *testing.T) {
	r, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	figs := r.Figures()
	if len(figs) != 9 {
		t.Fatalf("HTF figures %d, want 9 (9-17)", len(figs))
	}
	if figs[0].ID != "figure-09" || figs[8].ID != "figure-17" {
		t.Fatalf("figure range %s..%s", figs[0].ID, figs[8].ID)
	}
}

func TestPolicyStudyProducesBothStreams(t *testing.T) {
	pol := ppfs.DefaultPolicy()
	s := SmallStudy(ESCAT)
	s.Policy = &pol
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.PolicyStats == nil {
		t.Fatal("no policy stats")
	}
	// The physical stream is counted, not kept: write-behind merged the
	// application's writes into fewer PFS requests.
	logical := eventCounts(r.Events).Count[iotrace.OpWrite]
	if phys := r.Physical.Count[iotrace.OpWrite]; phys == 0 || phys >= logical {
		t.Fatalf("%d physical writes for %d logical ones; want fewer, and some", phys, logical)
	}
	// Write-behind absorbed the quadrature writes.
	if r.PolicyStats.BufferedWrites == 0 {
		t.Fatalf("stats %+v", *r.PolicyStats)
	}
}

// TestPolicyStudyHTFFinishes runs small HTF under the default PPFS policy,
// whose overlapping integral writes once left the write-behind buffer's
// byte count above zero forever, so every drain respawned an empty flush at
// the same simulated instant and the run never returned.
func TestPolicyStudyHTFFinishes(t *testing.T) {
	pol := ppfs.DefaultPolicy()
	s := SmallStudy(HTF)
	s.Policy = &pol
	done := make(chan struct{})
	var r *Report
	var err error
	go func() {
		defer close(done)
		r, err = Run(s)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("small HTF under the default PPFS policy did not finish within a minute")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) != 1413 || r.Wall.Seconds() < 93.5 || r.Wall.Seconds() > 93.6 {
		t.Fatalf("%d events over %v, want 1413 over 93.54s", len(r.Events), r.Wall)
	}
	if r.PolicyStats.BufferedWrites == 0 {
		t.Fatalf("stats %+v", *r.PolicyStats)
	}
}

func TestAblationWriteBehindShrinksAppVisibleWriteTime(t *testing.T) {
	base, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	pol := ppfs.DefaultPolicy()
	s := SmallStudy(ESCAT)
	s.Policy = &pol
	layered, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	bw := base.Summary.Row("Write").NodeTime
	lw := layered.Summary.Row("Write").NodeTime
	if lw*5 > bw {
		t.Fatalf("PPFS write time %v not far below PFS %v", lw, bw)
	}
	// And seeks became client-local.
	bs := base.Summary.Row("Seek").NodeTime
	ls := layered.Summary.Row("Seek").NodeTime
	if ls*5 > bs {
		t.Fatalf("PPFS seek time %v not far below PFS %v", ls, bs)
	}
}

func TestLifetimeReductionAgreesWithTrace(t *testing.T) {
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	// Sum of per-file op counts equals the trace totals.
	var reads, writes int64
	for _, f := range r.Lifetime.Files() {
		reads += f.Count[2-2] // OpRead == 0
		writes += f.Count[1]  // OpWrite == 1
	}
	if reads != r.Summary.Row("Read").Count {
		t.Fatalf("lifetime reads %d vs summary %d", reads, r.Summary.Row("Read").Count)
	}
	if writes != r.Summary.Row("Write").Count {
		t.Fatalf("lifetime writes %d vs summary %d", writes, r.Summary.Row("Write").Count)
	}
}

func TestWindowReductionCoversWholeRun(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.WindowWidth = 100 * sim.Millisecond
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range r.Windows.Windows() {
		for _, c := range w.Count {
			total += c
		}
	}
	if total != r.Summary.Total.Count {
		t.Fatalf("windows hold %d events, trace %d", total, r.Summary.Total.Count)
	}
}

func TestCompareTablesRender(t *testing.T) {
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	pt := PaperTables()[0]
	out := CompareTable(pt, r)
	if !strings.Contains(out, "paper vs measured") || !strings.Contains(out, "All I/O") {
		t.Fatalf("compare table:\n%s", out)
	}
	st := PaperSizeTables()[0]
	sout := CompareSizeTable(st, r)
	if !strings.Contains(sout, "Read") || !strings.Contains(sout, "measured") {
		t.Fatalf("compare sizes:\n%s", sout)
	}

	want := []Comparison{{"compare " + pt.Name, out}, {"compare " + st.Name, sout}}
	if got := r.Comparisons(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Comparisons() = %q, want %q", got, want)
	}
	if pt.Name != "Table 1 (ESCAT)" || st.Name != "Table 2 (ESCAT)" {
		t.Fatalf("ESCAT's tables are named %q and %q", pt.Name, st.Name)
	}
}

// TestWriteFiguresOrderAndErrors: WriteFigures hands out each figure's CSV,
// ASCII and SVG in that order, returns the first error of put or of a
// write, and hands out nothing after it.
func TestWriteFiguresOrderAndErrors(t *testing.T) {
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, fig := range r.Figures() {
		want = append(want, fig.ID+".csv", fig.ID+".txt", fig.ID+".svg")
	}
	if err := r.WriteFigures(func(name string, write func(io.Writer) error) error {
		names = append(names, name)
		var buf bytes.Buffer
		if err := write(&buf); err != nil || buf.Len() == 0 {
			t.Fatalf("%s: %d bytes, error %v", name, buf.Len(), err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("handed out %q, want %q", names, want)
	}

	stop := errors.New("stop")
	for _, fail := range []string{want[0], want[1], want[2]} {
		calls := 0
		err := r.WriteFigures(func(name string, write func(io.Writer) error) error {
			calls++
			if name == fail {
				return write(failingWriter{stop})
			}
			return write(io.Discard)
		})
		if !errors.Is(err, stop) {
			t.Errorf("%s: error %v, want %v", fail, err, stop)
		}
		if n := slices.Index(want, fail) + 1; calls != n {
			t.Errorf("%s: put called %d times, want %d", fail, calls, n)
		}
	}
}

// failingWriter fails every write with err.
type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// TestPaperExpectationsConsistency checks the registry against the paper:
// each of Figures 2-17 comes from exactly one app, the app the paper draws it
// for, and each of Tables 1-6 from at least one; every figure and table reads
// a phase its app's small run records (PhaseNone is the whole run); the
// published rows are well-formed, with grades that hold on the paper's own
// values; and a small run draws its app's figures in figure-number order.
func TestPaperExpectationsConsistency(t *testing.T) {
	figureApps := map[AppID][2]int{ESCAT: {2, 5}, RENDER: {6, 8}, HTF: {9, 17}}
	figures := map[string]int{}
	tables := map[string]bool{}
	for _, p := range papers {
		app := AppID(p.Name)
		r, err := Run(SmallStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		recorded := map[iotrace.Phase]bool{iotrace.PhaseNone: true}
		for _, e := range r.Events {
			recorded[e.Phase] = true
		}
		var want []string
		for _, f := range p.Figures {
			figures[f.ID]++
			want = append(want, f.ID)
			if !recorded[f.Phase] {
				t.Errorf("%s %s reads phase %q, which its small run does not record", app, f.ID, f.Phase)
			}
		}
		var got []string
		for _, f := range r.Figures() {
			got = append(got, f.ID)
		}
		first, last := figureApps[app][0], figureApps[app][1]
		if len(got) != last-first+1 || got[0] != fmt.Sprintf("figure-%02d", first) ||
			got[len(got)-1] != fmt.Sprintf("figure-%02d", last) ||
			!sort.StringsAreSorted(got) || !slices.Equal(got, want) {
			t.Errorf("%s draws figures %v, want figure-%02d..figure-%02d in order", app, got, first, last)
		}
		for _, tb := range p.Tables {
			for _, title := range []string{tb.Summary, tb.Sizes} {
				number, _, _ := strings.Cut(title, ":")
				tables[number] = true
			}
			if !recorded[tb.Phase] {
				t.Errorf("%s %q reads phase %q, which its small run does not record", app, tb.Summary, tb.Phase)
			}
			if len(tb.Rows) == 0 || tb.Rows[0].Op != "All I/O" {
				t.Errorf("%s %q rows malformed", app, tb.Summary)
			}
			gradesHoldOnThePaper(t, app, tb)
		}
	}
	for n := 2; n <= 17; n++ {
		if id := fmt.Sprintf("figure-%02d", n); figures[id] != 1 {
			t.Errorf("%s appears %d times in the registry, want once", id, figures[id])
		}
	}
	if len(figures) != 16 {
		t.Errorf("registry lists %d distinct figures, want 16 (2-17)", len(figures))
	}
	for n := 1; n <= 6; n++ {
		if !tables[fmt.Sprintf("Table %d", n)] {
			t.Errorf("no app renders Table %d", n)
		}
	}
	if len(PaperTables()) != 5 || len(PaperSizeTables()) != 5 {
		t.Errorf("%d operation and %d size tables, want 5 each", len(PaperTables()), len(PaperSizeTables()))
	}
}

// gradesHoldOnThePaper fails unless every band of tb is well-formed and
// holds the paper's own value for its cell, every order holds on the paper's
// own times, and the "All I/O" row carries no grade the checker would skip.
// A mistyped band fails here without a run.
func gradesHoldOnThePaper(t *testing.T, app AppID, tb workload.TableSpec) {
	t.Helper()
	holds := func(cell string, b workload.Band, paper float64) {
		if b[0] > b[1] || paper < b[0] || paper > b[1] {
			t.Errorf("%s %q %s: band %v does not hold the paper's %g", app, tb.Summary, cell, b, paper)
		}
	}
	if tb.Wall <= 0 {
		t.Errorf("%s %q publishes no wall clock", app, tb.Summary)
	}
	holds("wall clock", tb.WallBand, tb.Wall)
	var none workload.Band
	for i, row := range tb.Rows {
		if i == 0 && (row.VolumeBand != none || row.ExactVolume || row.Share != none || row.Exceeds != "") {
			t.Errorf("%s %q: the %s row carries a grade", app, tb.Summary, row.Op)
		}
		if row.ExactVolume && (row.Volume < 0 || row.VolumeBand != none) {
			t.Errorf("%s %q %s: an exact volume needs a published volume and no band", app, tb.Summary, row.Op)
		}
		if row.VolumeBand != none {
			holds(row.Op+" volume", row.VolumeBand, float64(row.Volume))
		}
		if row.Share != none {
			holds(row.Op+" %", row.Share, row.Pct)
		}
		if row.Exceeds != "" {
			j := slices.IndexFunc(tb.Rows, func(r workload.PaperRow) bool { return r.Op == row.Exceeds })
			if j <= 0 || row.Seconds <= tb.Rows[j].Seconds {
				t.Errorf("%s %q: %s's time does not exceed %q's in the paper", app, tb.Summary, row.Op, row.Exceeds)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	if a.Wall != b.Wall || len(a.Events) != len(b.Events) {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Wall, len(a.Events), b.Wall, len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

var _ = analysis.Summarize // keep import if helpers change

func TestPurposesMatchPaperNarratives(t *testing.T) {
	// ESCAT (§2/§5): inputs compulsory, staging checkpoint-style reuse of
	// each node's own data, outputs compulsory.
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	byFile := map[int]analysis.Purpose{}
	for _, fp := range r.Purposes() {
		byFile[int(fp.File)] = fp.Purpose
	}
	for _, id := range []int{9, 10, 11} {
		if byFile[id] != analysis.PurposeCompulsoryInput {
			t.Errorf("input file %d classified %v", id, byFile[id])
		}
	}
	for _, id := range []int{7, 8} {
		if byFile[id] != analysis.PurposeCheckpoint {
			t.Errorf("staging file %d classified %v", id, byFile[id])
		}
	}
	for _, id := range []int{3, 4, 5} {
		if byFile[id] != analysis.PurposeCompulsoryOutput {
			t.Errorf("output file %d classified %v", id, byFile[id])
		}
	}

	// HTF (§7): integral files are out-of-core ("too large to retain in
	// memory", reread every pass).
	h, err := Run(SmallStudy(HTF))
	if err != nil {
		t.Fatal(err)
	}
	outOfCore := 0
	for _, fp := range h.Purposes() {
		if fp.Purpose == analysis.PurposeOutOfCore && fp.RereadOwn {
			outOfCore++
		}
	}
	if outOfCore < 8 { // one integral file per node in SmallConfig
		t.Errorf("out-of-core integral files %d, want >= 8", outOfCore)
	}
}

func TestESCATScalingSuperlinearIOTime(t *testing.T) {
	pts, err := ESCATScaling([]int{8, 32}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points %v", pts)
	}
	// The token-serialized small-write pattern costs superlinearly in node
	// time: 4x the nodes should cost much more than 4x the seek+write time.
	ratio := float64(pts[1].SeekWrite) / float64(pts[0].SeekWrite)
	if ratio < 6 {
		t.Fatalf("seek+write scaled only %.1fx for 4x nodes: %v", ratio, pts)
	}
	out := RenderScaling(pts)
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "seek+write") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestReportPatternSummaryMatchesPaperConclusion(t *testing.T) {
	// §10: "the majority of the request patterns are sequential" and
	// "requests tend to be of fixed size".
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	s := r.PatternSummary()
	if s.Streams == 0 {
		t.Fatal("no streams")
	}
	if s.WeightedSequential < 0.5 {
		t.Fatalf("sequential fraction %.2f, paper says majority", s.WeightedSequential)
	}
	if s.FixedSizeStreams == 0 {
		t.Fatal("no fixed-size streams in ESCAT (quadrature records are fixed)")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r, err := Run(SmallStudy(ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if decoded["app"] != "escat" {
		t.Fatalf("app %v", decoded["app"])
	}
	ops := decoded["operations"].([]any)
	if len(ops) < 5 || ops[0].(map[string]any)["op"] != "All I/O" {
		t.Fatalf("operations %v", ops)
	}
	if decoded["patterns"].(map[string]any)["streams"].(float64) == 0 {
		t.Fatal("no pattern streams in json")
	}
}

// settleGoroutines waits for the goroutine count to return to base. A
// goroutine that has signalled completion may still be on its way out, and
// one an earlier test left exiting may finish after base was taken, so it
// polls briefly for at most base.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want at most %d", what, goruntime.NumGoroutine(), base)
		}
		goruntime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestRunsLeaveNoGoroutines checks that a small run ends every process
// coroutine it starts.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	base := goruntime.NumGoroutine()
	if _, err := Run(SmallStudy(ESCAT)); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base, "Run")
}

// TestRunFleetLeavesNoGoroutines checks that a fleet ends every worker and
// every cell's process coroutines, those its cells handed on through the
// fleet's pool included, on one worker and on two, and when a cell fails.
func TestRunFleetLeavesNoGoroutines(t *testing.T) {
	base := goruntime.NumGoroutine()
	for _, shards := range []int{1, 2} {
		if _, err := RunFleet(SmallStudy(ESCAT), FleetOptions{Cells: 8, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		settleGoroutines(t, base, fmt.Sprintf("RunFleet at %d shards", shards))
	}
	// Every I/O node down with no failover kills each cell's job.
	failing := chaosStudy().Study
	if _, err := RunFleet(failing, FleetOptions{Cells: 8, Shards: 2}); err == nil {
		t.Fatal("RunFleet succeeded; want a failed cell")
	}
	settleGoroutines(t, base, "a failed RunFleet")
}

// TestFailedAttemptLeavesNoGoroutines checks that a resilient run whose
// first attempt fails ends every coroutine of that attempt too: the halted
// engine unwinds the processes it left blocked.
func TestFailedAttemptLeavesNoGoroutines(t *testing.T) {
	base := goruntime.NumGoroutine()
	rr, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Attempts) < 2 || !rr.Attempts[0].Failed {
		t.Fatalf("attempts %+v, want a failed first attempt", rr.Attempts)
	}
	settleGoroutines(t, base, "RunResilient")
}

package analysis

import (
	"bytes"
	"cmp"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fixedCases are the %.1f inputs the differential tests and the fuzz seed
// corpus share: zero, exact binary ties (x.25, x.75), decimal near-ties
// (x.05, which no double represents exactly), their neighbours one ulp
// either side, negatives, non-finite values and the fast path's edges.
func fixedCases() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), 1e-7, 0.04999999, 0.05, 0.15, 0.25, 0.35, 0.45,
		0.75, 1.25, 2.75, 3.05, 99.95, 123.45, 369.25, 630.75, 700.05,
		-0.04, -0.05, -0.25, -1.75, -700.05,
		math.NaN(), math.Inf(1), math.Inf(-1),
		fixed1Limit, fixed1Limit - 0.05, fixed1Limit + 0.25, 1e20, math.MaxFloat64,
		math.SmallestNonzeroFloat64,
	}
	for k := 0; k < 200; k++ {
		tie := float64(k) + 0.05 + 0.1*float64(k%10)
		vs = append(vs, tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	return vs
}

// secondsCases are the %.6f inputs: zero, one microsecond, round seconds,
// negatives, and times either side of the integer path's 2^50 limit and out
// at 2^62.
func secondsCases() []sim.Time {
	return []sim.Time{
		0, 1, 9, 10, 999_999, sim.Second, sim.Second + 1, 3600*sim.Second + 500_000,
		-1, -sim.Second, -999_999, math.MinInt64,
		1<<50 - 1, 1 << 50, 1<<50 + 1, 1<<53 + 1, 1 << 62, 1<<62 + 12345, math.MaxInt64,
	}
}

func checkFixed1(t *testing.T, v float64) {
	t.Helper()
	if got, want := string(appendFixed1(nil, v)), fmt.Sprintf("%.1f", v); got != want {
		t.Fatalf("appendFixed1(%v) = %q, fmt %%.1f = %q", v, got, want)
	}
}

func checkSeconds6(t *testing.T, s sim.Time) {
	t.Helper()
	if got, want := string(appendSeconds6(nil, s)), fmt.Sprintf("%.6f", s.Seconds()); got != want {
		t.Fatalf("appendSeconds6(%d) = %q, fmt %%.6f = %q", int64(s), got, want)
	}
}

func TestAppendFixed1MatchesFmt(t *testing.T) {
	for _, v := range fixedCases() {
		checkFixed1(t, v)
	}
	// Every tenth and twentieth across the SVG coordinate range, and their
	// neighbours: the ties and near-ties the fast path must not misround.
	for k := 0; k <= 20000; k++ {
		v := float64(k) / 20
		checkFixed1(t, v)
		checkFixed1(t, math.Nextafter(v, 0))
		checkFixed1(t, math.Nextafter(v, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkFixed1(t, rng.Float64()*1000)
		checkFixed1(t, math.Ldexp(rng.Float64(), rng.Intn(40)))
	}
}

func TestAppendSeconds6MatchesFmt(t *testing.T) {
	for _, s := range secondsCases() {
		checkSeconds6(t, s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkSeconds6(t, sim.Time(rng.Int63n(1<<50)))
		checkSeconds6(t, sim.Time(rng.Int63()>>uint(rng.Intn(63))))
	}
}

func FuzzFixedFormat(f *testing.F) {
	ts := secondsCases()
	for i, v := range fixedCases() {
		f.Add(v, int64(ts[i%len(ts)]))
	}
	f.Fuzz(func(t *testing.T, v float64, s int64) {
		checkFixed1(t, v)
		checkSeconds6(t, sim.Time(s))
	})
}

// TestOpNamesNeedNoCSVQuoting pins what lets WriteCSV skip encoding/csv:
// every operation name, defined or not, passes through a csv.Writer
// unchanged.
func TestOpNamesNeedNoCSVQuoting(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := iotrace.Op(i)
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.Write([]string{op.String()}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		if got := buf.String(); got != op.String()+"\n" {
			t.Fatalf("op %d: csv writes %q for name %q", int(op), got, op.String())
		}
	}
}

// writeCSVReference is the encoding/csv + fmt formulation WriteCSV must
// reproduce byte for byte.
func writeCSVReference(w io.Writer, tl Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "y", "node", "file", "op"}); err != nil {
		return err
	}
	for _, p := range pointsOf(tl) {
		err := cw.Write([]string{
			fmt.Sprintf("%.6f", p.T.Seconds()),
			fmt.Sprintf("%d", p.Y),
			fmt.Sprintf("%d", p.Node),
			fmt.Sprintf("%d", p.File),
			p.Op.String(),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func TestWriteCSVMatchesReference(t *testing.T) {
	pts := randomPoints(2000, 3)
	for i, s := range secondsCases() {
		pts = append(pts, Point{T: s, Y: int64(s) / 3, Node: -i, File: iotrace.FileID(i), Op: iotrace.Op(i % (iotrace.NumOps + 2))})
	}
	pts = append(pts, Point{T: math.MaxInt64, Y: math.MinInt64, Node: math.MinInt32, File: math.MaxInt32, Op: iotrace.OpFlush})
	tl := viewOf(pts...)
	var got, want bytes.Buffer
	if err := WriteCSV(&got, tl); err != nil {
		t.Fatal(err)
	}
	if err := writeCSVReference(&want, tl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV differs from the encoding/csv reference")
	}
}

// randomPoints returns n points in random start order with a mix of read
// and write classes, seeded. viewOf turns them into a timeline.
func randomPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	ops := []iotrace.Op{iotrace.OpRead, iotrace.OpAsyncRead, iotrace.OpWrite}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			T:    sim.Time(rng.Int63n(int64(40000 * sim.Second))),
			Y:    1 + rng.Int63n(1<<22),
			Node: rng.Intn(512),
			File: iotrace.FileID(rng.Intn(300)),
			Op:   ops[rng.Intn(len(ops))],
		}
	}
	return pts
}

// randomEvents returns n events in random start order over every class.
func randomEvents(n int, seed int64) []iotrace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]iotrace.Event, n)
	for i := range events {
		start := sim.Time(rng.Int63n(int64(40000 * sim.Second)))
		events[i] = iotrace.Event{
			Node: int32(rng.Intn(512)), Op: iotrace.Op(rng.Intn(iotrace.NumOps)),
			File: iotrace.FileID(rng.Intn(300)), Bytes: rng.Int63n(1 << 22),
			Start: start, End: start + sim.Time(rng.Int63n(int64(sim.Second))),
		}
	}
	return events
}

// TestRenderAllocsConstant holds the render paths to a fixed number of
// allocations whatever the figure's size: the output (or the timeline's
// index) is sized once, not grown per point. A per-point allocation would
// cost a thousand at 1k points. RenderSVG's ceiling covers its per-figure
// frame, tick and legend lines, which still go through fmt.
func TestRenderAllocsConstant(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	cases := []struct {
		name    string
		ceiling float64
		run     func(tl Timeline, events []iotrace.Event)
	}{
		{"WriteCSV", 1, func(tl Timeline, _ []iotrace.Event) { _ = WriteCSV(io.Discard, tl) }},
		{"RenderSVG", 128, func(tl Timeline, _ []iotrace.Event) {
			_ = RenderSVG(tl, SVGOptions{Title: "Read <timeline>", LogY: true, YLabel: "request size", XLabel: "time (s)"})
		}},
		{"OpTimeline", 1, func(_ Timeline, events []iotrace.Event) { _ = ReadTimeline(events) }},
		{"FileTimeline", 1, func(_ Timeline, events []iotrace.Event) { _ = FileTimeline(events) }},
	}
	for _, c := range cases {
		var allocs [2]float64
		for i, n := range []int{1000, 10000} {
			tl, events := viewOf(randomPoints(n, int64(n))...), randomEvents(n, int64(n))
			allocs[i] = minAllocs(func() { c.run(tl, events) })
		}
		if allocs[0] > c.ceiling || allocs[1] > c.ceiling {
			t.Errorf("%s: %v allocs at 1k points, %v at 10k; want at most %v at both",
				c.name, allocs[0], allocs[1], c.ceiling)
		}
	}
}

// minAllocs is the fewest allocations f makes over three AllocsPerRun
// samples: a garbage collection started by a large output buffer can charge
// one runtime allocation of its own to a single sample.
func minAllocs(f func()) float64 {
	least := math.Inf(1)
	for i := 0; i < 3; i++ {
		least = min(least, testing.AllocsPerRun(5, f))
	}
	return least
}

// TestWriteCSVLenIsExact holds csvLen to the length WriteCSV writes, over
// random points with negative fields and times either side of
// appendSeconds6's integer range, and checks that a growable writer is
// grown once to exactly that length.
func TestWriteCSVLenIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(3000, 7)
	for i := range pts {
		p := &pts[i]
		switch i % 5 {
		case 1:
			p.T, p.Y, p.Node = -p.T, -p.Y, -p.Node
		case 2:
			p.T = exactSecondsLimit + sim.Time(rng.Int63n(int64(math.MaxInt64-exactSecondsLimit)))
		case 3:
			p.T = exactSecondsLimit - 1 - sim.Time(rng.Intn(3))
			p.File = -p.File
		case 4:
			p.Op = iotrace.Op(rng.Intn(64))
		}
	}
	for _, s := range secondsCases() {
		pts = append(pts, Point{T: s, Y: int64(s), Node: math.MinInt32, File: math.MinInt32})
	}
	pts = append(pts, Point{T: math.MinInt64, Y: math.MinInt64, Node: math.MaxInt32, File: math.MaxInt32, Op: iotrace.OpAsyncRead})
	for _, n := range []int{0, 1, 100, len(pts)} {
		tl := viewOf(pts[:n]...)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tl); err != nil {
			t.Fatal(err)
		}
		if got := csvLen(tl); got != buf.Len() {
			t.Fatalf("%d points: csvLen = %d, WriteCSV wrote %d bytes", n, got, buf.Len())
		}
		var g growRecorder
		if err := WriteCSV(&g, tl); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), buf.Bytes()) || len(g.grows) != 1 || g.grows[0] != g.Len() {
			t.Fatalf("%d points: grown by %v for %d bytes, want once by exactly that", n, g.grows, g.Len())
		}
	}
}

// growRecorder is a bytes.Buffer that records each Grow request.
type growRecorder struct {
	bytes.Buffer
	grows []int
}

func (g *growRecorder) Grow(n int) {
	g.grows = append(g.grows, n)
	g.Buffer.Grow(n)
}

// failingWriter accepts its first ok writes and fails every later one.
type failingWriter struct {
	ok, writes int
}

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestWriteCSVReturnsWriteError checks that a failed chunk write ends
// WriteCSV with that error and no further writes.
func TestWriteCSVReturnsWriteError(t *testing.T) {
	tl := viewOf(randomPoints(10000, 11)...)
	if n := csvLen(tl); n < 3*csvChunk {
		t.Fatalf("%d bytes of CSV fill fewer than three chunks", n)
	}
	w := &failingWriter{ok: 1}
	if err := WriteCSV(w, tl); !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteCSV = %v, want the second Write's error", err)
	}
	if w.writes != 2 {
		t.Fatalf("WriteCSV made %d writes, want it to stop at the failed second", w.writes)
	}
}

// TestRenderSVGSizeBound checks that svgSize bounds RenderSVG's output and
// that the output is the buffer svgSize sized, never regrown (its capacity
// is still the bound), on empty input, tiny and huge canvases, extreme
// times and sizes, and labels that need XML escapes.
func TestRenderSVGSizeBound(t *testing.T) {
	// Times and sizes across the whole int64 range, ends included.
	extreme := []Point{
		{T: math.MinInt64, Y: math.MinInt64, Op: iotrace.OpWrite},
		{T: math.MaxInt64, Y: math.MaxInt64, Op: iotrace.OpAsyncRead},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		extreme = append(extreme, Point{T: sim.Time(rng.Uint64()), Y: int64(rng.Uint64()), Op: iotrace.Op(i % 3)})
	}
	escapes := strings.Repeat(`<&>"'`, 40)
	inputs := []Timeline{{}, viewOf(randomPoints(1, 1)...), viewOf(randomPoints(5000, 2)...), viewOf(extreme...)}
	for _, w := range []int{0, 10, 90, 720, 10000} {
		for _, h := range []int{0, 10, 420, 10000} {
			for _, title := range []string{"", "Read <timeline> & \"more\"", escapes} {
				for i, tl := range inputs {
					for _, logY := range []bool{false, true} {
						opts := SVGOptions{Title: title, Width: w, Height: h, LogY: logY, YLabel: title, XLabel: title}
						out := RenderSVG(tl, opts)
						sized := opts
						sized.Width, sized.Height = cmp.Or(w, 720), cmp.Or(h, 420)
						bound := svgSize(tl, sized)
						if len(out) > bound || cap(out) != bound {
							t.Fatalf("%dx%d, title %q, input %d, log %v: %d bytes in a buffer of %d, want at most and exactly svgSize %d",
								w, h, title, i, logY, len(out), cap(out), bound)
						}
					}
				}
			}
		}
	}
}

// pageTail is how far the heap rounds a large allocation of n bytes up, to
// whole 8 KB pages; runtime.MemStats.TotalAlloc counts the rounded size.
func pageTail(n int) uint64 {
	const page = 8 << 10
	return uint64((n+page-1)/page*page - n)
}

// leastAlloc is the fewest bytes f allocates over three runs.
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRenderBytesNearOutput holds the renderers' allocated bytes near their
// output at 10k points: RenderSVG to its output plus 4 KB, and WriteCSV
// into a fresh bytes.Buffer, which it formats into directly, to its output
// plus 4 KB as well (a 32 KB chunk on top would exceed it). The heap's
// rounding of the output buffer up to whole pages is not counted against
// them. A copy of the output, or a size bound grown loose again, exceeds
// these by the size of the figure, which an allocation count cannot see.
func TestRenderBytesNearOutput(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	tl := viewOf(randomPoints(10000, 13)...)
	opts := SVGOptions{Title: "Read <timeline>", Width: 720, Height: 420, YLabel: "request size", XLabel: "time (s)"}
	var svg []byte
	got := leastAlloc(func() { svg = RenderSVG(tl, opts) })
	if limit := uint64(len(svg)) + 4<<10 + pageTail(cap(svg)); got > limit {
		t.Errorf("RenderSVG allocated %d bytes for %d bytes of output, want at most %d", got, len(svg), limit)
	}
	var n int
	got = leastAlloc(func() {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tl); err != nil {
			t.Fatal(err)
		}
		n = buf.Len()
	})
	if limit := uint64(n) + 4<<10 + pageTail(n); got > limit {
		t.Errorf("WriteCSV allocated %d bytes for %d bytes of output, want at most %d", got, n, limit)
	}
}

func TestTimelinesMatchStableSort(t *testing.T) {
	events := randomEvents(5000, 9)
	// Coarse start times force many equal keys, so stability shows.
	for i := range events {
		events[i].Start -= events[i].Start % (100 * sim.Second)
	}
	for _, pts := range [][]Point{pointsOf(ReadTimeline(events)), pointsOf(FileTimeline(events))} {
		for i := 1; i < len(pts); i++ {
			if pts[i].T < pts[i-1].T {
				t.Fatalf("point %d out of time order", i)
			}
		}
	}
	// Equal start times keep capture order: each timeline is a stable
	// sort, so with all starts equal it is the capture-order subsequence.
	for i := range events {
		events[i].Start = 0
	}
	pts := pointsOf(FileTimeline(events))
	j := 0
	for _, e := range events {
		if e.Op == iotrace.OpRead || e.Op == iotrace.OpAsyncRead || e.Op == iotrace.OpWrite {
			if pts[j].File != e.File || pts[j].Node != int(e.Node) || pts[j].Op != e.Op {
				t.Fatalf("point %d not in capture order", j)
			}
			j++
		}
	}
	if j != len(pts) {
		t.Fatalf("%d points, want %d", len(pts), j)
	}
}

// renderOpSummaryReference and renderSizeTableReference are the fmt
// formulations OpSummary.Render and SizeTable.Render must reproduce byte for
// byte.
func renderOpSummaryReference(s OpSummary, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %12s %16s %14s %10s\n", "Operation", "Count", "Volume (Bytes)", "Time (s)", "% I/O Time")
	for _, r := range append([]OpRow{s.Total}, s.Rows...) {
		vol := "-"
		if r.HasVolume {
			vol = fmt.Sprintf("%d", r.Volume)
		}
		fmt.Fprintf(&b, "%-12s %12d %16s %14.2f %10.2f\n",
			r.Label, r.Count, vol, r.NodeTime.Seconds(), r.Pct)
	}
	return b.String()
}

func renderSizeTableReference(t SizeTable, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s", "Operation")
	for _, l := range stats.PaperBucketLabels {
		fmt.Fprintf(&b, " %10s", l)
	}
	b.WriteByte('\n')
	for _, r := range []struct {
		name string
		h    *stats.Histogram
	}{{"Read", t.Read}, {"Write", t.Write}} {
		fmt.Fprintf(&b, "%-10s", r.name)
		for _, c := range r.h.Buckets() {
			fmt.Fprintf(&b, " %10d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTableRenderMatchesFmt holds the table renderers to their fmt
// formulation on real summaries, on cells wider than their columns, and on
// negative, rounding-tie and non-finite values.
func TestTableRenderMatchesFmt(t *testing.T) {
	events := randomEvents(3000, 5)
	sums := []OpSummary{Summarize(events), Summarize(nil), {
		Total: OpRow{Label: "All I/O", Count: math.MinInt64, Volume: math.MaxInt64, HasVolume: true,
			NodeTime: math.MaxInt64, Pct: math.Inf(1)},
		Rows: []OpRow{
			{Label: "Reäd-wider-than-twelve", Count: -7, NodeTime: -sim.Time(5000), Pct: math.NaN()},
			{Label: "Wait", Count: 1, Volume: -1, HasVolume: true, NodeTime: 1_005_000, Pct: math.Inf(-1)},
			{Label: "Seek", NodeTime: 125, Pct: -0.005},
			{Label: "", Pct: 0.125},
		},
	}}
	for i, s := range sums {
		if got, want := s.Render("Table τ"), renderOpSummaryReference(s, "Table τ"); got != want {
			t.Errorf("summary %d:\n got %q\nwant %q", i, got, want)
		}
	}
	sz := Sizes(events)
	sz.Write.Add(math.MaxInt64)
	if got, want := sz.Render("Sizes"), renderSizeTableReference(sz, "Sizes"); got != want {
		t.Errorf("size table:\n got %q\nwant %q", got, want)
	}
}

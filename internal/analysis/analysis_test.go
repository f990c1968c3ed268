package analysis

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
)

func ev(op iotrace.Op, file iotrace.FileID, bytes int64, start, end sim.Time) iotrace.Event {
	return iotrace.Event{Op: op, File: file, Bytes: bytes, Start: start, End: end}
}

func sampleTrace() []iotrace.Event {
	return []iotrace.Event{
		ev(iotrace.OpOpen, 1, 0, 0, sim.Second),
		ev(iotrace.OpRead, 1, 1000, 2*sim.Second, 3*sim.Second),
		ev(iotrace.OpRead, 1, 500_000, 3*sim.Second, 6*sim.Second),
		ev(iotrace.OpWrite, 2, 2048, 7*sim.Second, 9*sim.Second),
		ev(iotrace.OpWrite, 2, 2048, 9*sim.Second, 10*sim.Second),
		ev(iotrace.OpSeek, 2, 4096, 10*sim.Second, 11*sim.Second),
		ev(iotrace.OpClose, 1, 0, 11*sim.Second, 12*sim.Second),
	}
}

func TestSummarizeCountsVolumesTimes(t *testing.T) {
	s := Summarize(sampleTrace())
	if s.Total.Count != 7 {
		t.Fatalf("total count %d", s.Total.Count)
	}
	// Volume = read 501000 + write 4096; seek distance is listed on the
	// seek row but (as in the paper) excluded from the All I/O total.
	if s.Total.Volume != 501000+4096 {
		t.Fatalf("total volume %d", s.Total.Volume)
	}
	if sk := s.Row("Seek"); sk.Volume != 4096 || !sk.HasVolume {
		t.Fatalf("seek row %+v", sk)
	}
	if s.Total.NodeTime != 10*sim.Second {
		t.Fatalf("total time %v", s.Total.NodeTime)
	}
	r := s.Row("Read")
	if r == nil || r.Count != 2 || r.Volume != 501000 || r.NodeTime != 4*sim.Second {
		t.Fatalf("read row %+v", r)
	}
	if pct := r.Pct; pct < 39.9 || pct > 40.1 {
		t.Fatalf("read pct %f, want 40", pct)
	}
	w := s.Row("Write")
	if w == nil || w.Count != 2 || w.Volume != 4096 {
		t.Fatalf("write row %+v", w)
	}
	if s.Row("Open").HasVolume {
		t.Fatal("open row should have no volume")
	}
	if s.Row("I/O Wait") != nil {
		t.Fatal("absent op class produced a row")
	}
}

// Property: row percentages sum to ~100 whenever any time was spent.
func TestSummaryPctSumsProperty(t *testing.T) {
	prop := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		var events []iotrace.Event
		var cur sim.Time
		for i, d := range durs {
			op := paperRowOrder[i%len(paperRowOrder)]
			events = append(events, ev(op, 1, 100, cur, cur+sim.Time(d)+1))
			cur += sim.Time(d) + 1
		}
		s := Summarize(events)
		var sum float64
		for _, r := range s.Rows {
			sum += r.Pct
		}
		return sum > 99.9 && sum < 100.1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryRender(t *testing.T) {
	out := Summarize(sampleTrace()).Render("Table X")
	for _, want := range []string{"Table X", "All I/O", "Read", "Write", "Seek", "Open", "Close", "% I/O Time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Open/Close have no volume: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("render missing '-' volume:\n%s", out)
	}
}

func TestSizesMergeAsyncReads(t *testing.T) {
	events := []iotrace.Event{
		ev(iotrace.OpRead, 1, 1000, 0, 1),
		ev(iotrace.OpAsyncRead, 1, 3_000_000, 0, 1),
		ev(iotrace.OpWrite, 1, 70_000, 0, 1),
		ev(iotrace.OpIOWait, 1, 0, 0, 1), // not a sized request
	}
	st := Sizes(events)
	if st.Read.Total() != 2 {
		t.Fatalf("read total %d", st.Read.Total())
	}
	rb := st.Read.Buckets()
	if rb[0] != 1 || rb[3] != 1 {
		t.Fatalf("read buckets %v", rb)
	}
	wb := st.Write.Buckets()
	if wb[2] != 1 || st.Write.Total() != 1 {
		t.Fatalf("write buckets %v", wb)
	}
	out := st.Render("Sizes")
	if !strings.Contains(out, "< 4 KB") || !strings.Contains(out, ">= 256 KB") {
		t.Fatalf("size render:\n%s", out)
	}
}

func TestOpTimelineOrderingAndFiltering(t *testing.T) {
	events := []iotrace.Event{
		ev(iotrace.OpWrite, 1, 10, 5*sim.Second, 6*sim.Second),
		ev(iotrace.OpRead, 1, 20, 2*sim.Second, 3*sim.Second),
		ev(iotrace.OpSeek, 1, 0, sim.Second, 2*sim.Second),
	}
	pts := pointsOf(ReadTimeline(events))
	if len(pts) != 1 || pts[0].Y != 20 {
		t.Fatalf("read timeline %v", pts)
	}
	both := pointsOf(OpTimeline(events, iotrace.OpRead, iotrace.OpWrite))
	if len(both) != 2 || both[0].T != 2*sim.Second || both[1].T != 5*sim.Second {
		t.Fatalf("timeline not time-ordered: %v", both)
	}
}

func TestFileTimelineUsesFileAsY(t *testing.T) {
	events := []iotrace.Event{
		ev(iotrace.OpRead, 9, 10, 0, 1),
		ev(iotrace.OpWrite, 3, 10, 2, 3),
		ev(iotrace.OpOpen, 5, 0, 4, 5),
	}
	pts := pointsOf(FileTimeline(events))
	if len(pts) != 2 {
		t.Fatalf("file timeline %v", pts)
	}
	if pts[0].Y != 9 || pts[1].Y != 3 {
		t.Fatalf("file ids %v", pts)
	}
}

func TestFilters(t *testing.T) {
	events := []iotrace.Event{
		{Op: iotrace.OpRead, Phase: iotrace.PhasePsetup, Start: 1 * sim.Second},
		{Op: iotrace.OpWrite, Phase: iotrace.PhasePscf, Start: 5 * sim.Second},
		{Op: iotrace.OpRead, Phase: iotrace.PhasePscf, Start: 9 * sim.Second},
	}
	if got := FilterPhase(events, iotrace.PhasePscf); len(got) != 2 {
		t.Fatalf("phase filter %v", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	tl := viewOf(Point{T: sim.Second + sim.Time(500000), Y: 42, Node: 3, File: 7, Op: iotrace.OpWrite})
	if err := WriteCSV(&buf, tl); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.HasPrefix(got, "time_s,y,node,file,op\n") {
		t.Fatalf("csv header: %q", got)
	}
	if !strings.Contains(got, "1.500000,42,3,7,Write") {
		t.Fatalf("csv row: %q", got)
	}

	buf.Reset()
	if err := WriteCSV(&buf, Timeline{}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "time_s,y,node,file,op\n" {
		t.Fatalf("empty csv: %q", got)
	}

	buf.Reset()
	tl = viewOf(
		Point{T: 0, Y: 0, Node: 0, File: 0, Op: iotrace.OpRead},
		Point{T: 1, Y: 1 << 20, Node: 12, File: 3, Op: iotrace.OpAsyncRead},
		Point{T: 3600*sim.Second + 999_999, Y: -1, Node: 511, File: 42, Op: iotrace.OpIOWait},
	)
	if err := WriteCSV(&buf, tl); err != nil {
		t.Fatal(err)
	}
	want := "time_s,y,node,file,op\n" +
		"0.000000,0,0,0,Read\n" +
		"0.000001,1048576,12,3,AsynchRead\n" +
		"3600.999999,-1,511,42,I/O Wait\n"
	if got := buf.String(); got != want {
		t.Fatalf("multi-row csv:\n%s\nwant:\n%s", got, want)
	}
}

func TestBurstsClusterByGap(t *testing.T) {
	mk := func(secs ...int) Timeline {
		var pts []Point
		for _, s := range secs {
			pts = append(pts, Point{T: sim.Time(s) * sim.Second, Y: 1})
		}
		return viewOf(pts...)
	}
	// Three clusters: {0,1,2}, {50,51}, {120}.
	bursts := Bursts(mk(0, 1, 2, 50, 51, 120), 10*sim.Second)
	if len(bursts) != 3 {
		t.Fatalf("bursts %v", bursts)
	}
	if bursts[0].Count != 3 || bursts[1].Count != 2 || bursts[2].Count != 1 {
		t.Fatalf("burst counts %v", bursts)
	}
	sp := BurstSpacings(bursts)
	if len(sp) != 2 || sp[0] != 50*sim.Second || sp[1] != 70*sim.Second {
		t.Fatalf("spacings %v", sp)
	}
}

// Property: bursts partition the points — counts sum to len(pts).
func TestBurstsPartitionProperty(t *testing.T) {
	prop := func(gaps []uint8) bool {
		var pts []Point
		var cur sim.Time
		for _, g := range gaps {
			cur += sim.Time(g) * sim.Second
			pts = append(pts, Point{T: cur, Y: 1})
		}
		total := 0
		for _, b := range Bursts(viewOf(pts...), 5*sim.Second) {
			total += b.Count
		}
		return total == len(pts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	tl := viewOf(Point{Y: 5 << 20}, Point{Y: 5 << 20})
	if got := Throughput(tl, sim.Second); got != 10*(1<<20) {
		t.Fatalf("throughput %f", got)
	}
	if Throughput(tl, 0) != 0 {
		t.Fatal("zero span should give 0")
	}
}

func TestRenderScatterMarks(t *testing.T) {
	tl := viewOf(
		Point{T: 0, Y: 100, Op: iotrace.OpRead},
		Point{T: 10 * sim.Second, Y: 1 << 20, Op: iotrace.OpWrite},
	)
	out := RenderScatter(tl, PlotOptions{Title: "Fig", Width: 40, Height: 10, LogY: true})
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Fatalf("scatter:\n%s", out)
	}
	empty := RenderScatter(Timeline{}, PlotOptions{})
	if !strings.Contains(empty, "no data") {
		t.Fatalf("empty scatter: %q", empty)
	}
}

func TestRenderScatterOverlapBecomesStar(t *testing.T) {
	tl := viewOf(
		Point{T: 0, Y: 100, Op: iotrace.OpRead},
		Point{T: 0, Y: 100, Op: iotrace.OpWrite},
	)
	out := RenderScatter(tl, PlotOptions{Width: 10, Height: 5})
	if !strings.Contains(out, "*") {
		t.Fatalf("overlap mark missing:\n%s", out)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:        "512B",
		2048:       "2.0KB",
		3 << 20:    "3.0MB",
		5 << 30:    "5.0GB",
		983_040:    "960.0KB",
		64 * 1024:  "64.0KB",
		256 * 1024: "256.0KB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderSVGStructure(t *testing.T) {
	tl := viewOf(
		Point{T: 0, Y: 100, Op: iotrace.OpRead},
		Point{T: 10 * sim.Second, Y: 1 << 20, Op: iotrace.OpWrite},
		Point{T: 5 * sim.Second, Y: 2048, Op: iotrace.OpAsyncRead},
	)
	out := string(RenderSVG(tl, SVGOptions{Title: "Fig <4> & more", LogY: true, YLabel: "size", XLabel: "time"}))
	for _, want := range []string{
		"<svg", "</svg>", "Fig &lt;4&gt; &amp; more", "read", "write",
		`stroke="#c0392b"`, `stroke="#2c5f8a"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Well-formedness cheap check: every < has a matching >.
	if strings.Count(out, "<") != strings.Count(out, ">") {
		t.Fatal("unbalanced angle brackets")
	}
}

func TestRenderSVGEmpty(t *testing.T) {
	out := string(RenderSVG(Timeline{}, SVGOptions{}))
	if !strings.Contains(out, "no data") || !strings.Contains(out, "</svg>") {
		t.Fatalf("empty svg: %q", out)
	}
}

func TestEscapeXML(t *testing.T) {
	if got := escapeXML(`a<b>&"c"'d'`); got != "a&lt;b&gt;&amp;&quot;c&quot;&apos;d&apos;" {
		t.Fatalf("escape %q", got)
	}
}

func TestRenderActivityStrip(t *testing.T) {
	// A read-heavy window followed by a write-heavy one.
	w := pablo.NewWindowReducer(sim.Second)
	w.Reduce(iotrace.Event{Op: iotrace.OpRead, Bytes: 1 << 20, Start: 0, End: 1})
	w.Reduce(iotrace.Event{Op: iotrace.OpWrite, Bytes: 2 << 20, Start: 3 * sim.Second, End: 3*sim.Second + 1})
	out := RenderActivity(w, 40)
	for _, want := range []string{"I/O activity", "R", "W", "peak window"} {
		if !strings.Contains(out, want) {
			t.Fatalf("activity missing %q:\n%s", want, out)
		}
	}
	// Empty reducer.
	empty := RenderActivity(pablo.NewWindowReducer(sim.Second), 40)
	if !strings.Contains(empty, "no activity") {
		t.Fatalf("empty activity: %q", empty)
	}
}

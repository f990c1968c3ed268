package analysis

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

func mkEvent(op iotrace.Op, file iotrace.FileID, node int, off, n int64, at sim.Time) iotrace.Event {
	return iotrace.Event{Op: op, File: file, Node: int32(node), Offset: off, Bytes: n, Start: at, End: at + 1}
}

func findStream(t *testing.T, ps []StreamPattern, file iotrace.FileID, node int) StreamPattern {
	t.Helper()
	for _, p := range ps {
		if p.File == file && p.Node == node {
			return p
		}
	}
	t.Fatalf("stream (%d,%d) missing", file, node)
	return StreamPattern{}
}

func TestPatternsSequentialStream(t *testing.T) {
	var events []iotrace.Event
	for i := int64(0); i < 10; i++ {
		events = append(events, mkEvent(iotrace.OpRead, 1, 0, i*100, 100, sim.Time(i)*sim.Second))
	}
	ps := Patterns(events)
	p := findStream(t, ps, 1, 0)
	if p.Accesses != 10 || p.Sequential != 9 {
		t.Fatalf("pattern %+v", p)
	}
	if p.SequentialFraction() != 1.0 {
		t.Fatalf("seq fraction %f", p.SequentialFraction())
	}
	if !p.FixedSize || p.Size != 100 {
		t.Fatalf("size detection %+v", p)
	}
}

func TestPatternsConsecutiveRewrite(t *testing.T) {
	// Repeated in-place overwrites: not sequential.
	var events []iotrace.Event
	for i := 0; i < 5; i++ {
		events = append(events, mkEvent(iotrace.OpWrite, 2, 1, 0, 512, sim.Time(i)*sim.Second))
	}
	p := findStream(t, Patterns(events), 2, 1)
	if p.Accesses != 5 || p.Sequential != 0 {
		t.Fatalf("pattern %+v", p)
	}
}

func TestPatternsMixedSizes(t *testing.T) {
	events := []iotrace.Event{
		mkEvent(iotrace.OpRead, 3, 0, 0, 100, 0),
		mkEvent(iotrace.OpRead, 3, 0, 100, 100, sim.Second),
		mkEvent(iotrace.OpRead, 3, 0, 200, 900, 2*sim.Second),
	}
	p := findStream(t, Patterns(events), 3, 0)
	if p.FixedSize {
		t.Fatal("mixed sizes detected as fixed")
	}
	if p.Size != 100 { // most common
		t.Fatalf("dominant size %d", p.Size)
	}
}

func TestPatternsIgnoreNonDataOps(t *testing.T) {
	events := []iotrace.Event{
		mkEvent(iotrace.OpOpen, 1, 0, 0, 0, 0),
		mkEvent(iotrace.OpSeek, 1, 0, 500, 500, sim.Second),
	}
	if got := Patterns(events); len(got) != 0 {
		t.Fatalf("non-data ops produced streams: %v", got)
	}
}

// Property: Sequential <= Accesses-1 for every stream.
func TestPatternsOrderingProperty(t *testing.T) {
	prop := func(offs []uint16) bool {
		var events []iotrace.Event
		for i, o := range offs {
			events = append(events, mkEvent(iotrace.OpRead, 1, 0, int64(o), 64, sim.Time(i)*sim.Second))
		}
		for _, p := range Patterns(events) {
			if p.Accesses <= 1 {
				continue
			}
			if p.Sequential > p.Accesses-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizePatterns(t *testing.T) {
	var events []iotrace.Event
	// Stream A: perfectly sequential fixed-size.
	for i := int64(0); i < 8; i++ {
		events = append(events, mkEvent(iotrace.OpRead, 1, 0, i*100, 100, sim.Time(i)*sim.Second))
	}
	// Stream B: random variable-size.
	for i, off := range []int64{900, 5, 777, 123} {
		events = append(events, mkEvent(iotrace.OpRead, 2, 0, off, int64(10+i), sim.Time(i)*sim.Second))
	}
	s := SummarizePatterns(Patterns(events))
	if s.Streams != 2 || s.SequentialStreams != 1 || s.FixedSizeStreams != 1 {
		t.Fatalf("summary %+v", s)
	}
	// 7 of 10 transitions sequential.
	if s.WeightedSequential < 0.69 || s.WeightedSequential > 0.71 {
		t.Fatalf("weighted %f", s.WeightedSequential)
	}
}

func TestCyclesBracketSessions(t *testing.T) {
	events := []iotrace.Event{
		mkEvent(iotrace.OpOpen, 1, 0, 0, 0, 0),
		mkEvent(iotrace.OpWrite, 1, 0, 0, 100, sim.Second),
		mkEvent(iotrace.OpClose, 1, 0, 0, 0, 2*sim.Second),
		// Second session on the same file.
		mkEvent(iotrace.OpOpen, 1, 0, 0, 0, 10*sim.Second),
		mkEvent(iotrace.OpRead, 1, 0, 0, 100, 11*sim.Second),
		mkEvent(iotrace.OpRead, 1, 0, 100, 100, 12*sim.Second),
		mkEvent(iotrace.OpClose, 1, 0, 0, 0, 13*sim.Second),
		// A session left open (not emitted).
		mkEvent(iotrace.OpOpen, 2, 0, 0, 0, 20*sim.Second),
	}
	cycles := Cycles(events)
	if len(cycles) != 2 {
		t.Fatalf("cycles %v", cycles)
	}
	if cycles[0].Accesses != 1 || cycles[0].Bytes != 100 {
		t.Fatalf("cycle 0 %+v", cycles[0])
	}
	if cycles[1].Accesses != 2 || cycles[1].OpenAt != 10*sim.Second {
		t.Fatalf("cycle 1 %+v", cycles[1])
	}
}

func TestCyclesNestedOpens(t *testing.T) {
	// Two nodes hold the file open with overlap: one bracketing cycle.
	events := []iotrace.Event{
		mkEvent(iotrace.OpOpen, 1, 0, 0, 0, 0),
		mkEvent(iotrace.OpOpen, 1, 1, 0, 0, sim.Second),
		mkEvent(iotrace.OpWrite, 1, 0, 0, 50, 2*sim.Second),
		mkEvent(iotrace.OpClose, 1, 0, 0, 0, 3*sim.Second),
		mkEvent(iotrace.OpClose, 1, 1, 0, 0, 9*sim.Second),
	}
	cycles := Cycles(events)
	if len(cycles) != 1 {
		t.Fatalf("cycles %v", cycles)
	}
	if cycles[0].CloseAt != 9*sim.Second+1 {
		t.Fatalf("close at %v", cycles[0].CloseAt)
	}
}

func TestCyclesUnbalancedCloseIgnored(t *testing.T) {
	events := []iotrace.Event{
		mkEvent(iotrace.OpClose, 1, 0, 0, 0, 0), // sliced trace
		mkEvent(iotrace.OpOpen, 1, 0, 0, 0, sim.Second),
		mkEvent(iotrace.OpClose, 1, 0, 0, 0, 2*sim.Second),
	}
	if got := Cycles(events); len(got) != 1 {
		t.Fatalf("cycles %v", got)
	}
}

// The next three tests cover the access regimes the I/O-node cache
// distinguishes (internal/cache mirrors this classifier's logic online):
// small sequential reads prefetch well, fixed-record interleaved writes are
// strided per stream, and random access defeats both.

func TestPatternsCacheRegimeSmallSequentialReads(t *testing.T) {
	// ESCAT-style: one node re-reading a file in 2 KB sequential requests.
	var events []iotrace.Event
	for i := int64(0); i < 40; i++ {
		events = append(events, mkEvent(iotrace.OpRead, 1, 0, i*2048, 2048, sim.Time(i)*sim.Millisecond))
	}
	p := findStream(t, Patterns(events), 1, 0)
	if p.SequentialFraction() != 1.0 {
		t.Fatalf("sequential fraction %f, want 1", p.SequentialFraction())
	}
	if !p.FixedSize || p.Size != 2048 {
		t.Fatalf("size %+v", p)
	}
	s := SummarizePatterns(Patterns(events))
	if s.SequentialStreams != 1 || s.WeightedSequential != 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestPatternsCacheRegimeInterleavedRecordWrites(t *testing.T) {
	// M_RECORD-style: 4 nodes writing fixed 4 KB records interleaved
	// node-major (node k writes records k, k+N, k+2N, ...). Per-node
	// streams are strided — zero sequential transitions — but perfectly
	// fixed-size, which is what the cache's stride predictor keys on.
	const nodes, rounds, rec = 4, 10, int64(4096)
	var events []iotrace.Event
	for r := int64(0); r < rounds; r++ {
		for n := 0; n < nodes; n++ {
			off := (r*nodes + int64(n)) * rec
			events = append(events, mkEvent(iotrace.OpWrite, 1, n, off, rec,
				sim.Time(r*nodes+int64(n))*sim.Millisecond))
		}
	}
	ps := Patterns(events)
	if len(ps) != nodes {
		t.Fatalf("%d streams, want %d", len(ps), nodes)
	}
	for _, p := range ps {
		if p.Sequential != 0 {
			t.Fatalf("node %d: interleaved stream counted %d sequential transitions", p.Node, p.Sequential)
		}
		if !p.FixedSize || p.Size != rec {
			t.Fatalf("node %d: %+v", p.Node, p)
		}
		if p.Accesses != rounds {
			t.Fatalf("node %d: %d accesses", p.Node, p.Accesses)
		}
	}
	s := SummarizePatterns(ps)
	if s.SequentialStreams != 0 || s.FixedSizeStreams != nodes {
		t.Fatalf("summary %+v", s)
	}
}

func TestPatternsCacheRegimeRandomAccess(t *testing.T) {
	// Random offsets with no adjacency: nothing sequential — the regime
	// where a cache must not prefetch.
	offs := []int64{9000, 100, 77700, 3100, 51000, 12, 64000, 8200}
	var events []iotrace.Event
	for i, off := range offs {
		events = append(events, mkEvent(iotrace.OpRead, 1, 0, off, 64, sim.Time(i)*sim.Millisecond))
	}
	p := findStream(t, Patterns(events), 1, 0)
	if p.Sequential != 0 {
		t.Fatalf("random stream classified with locality: %+v", p)
	}
	s := SummarizePatterns(Patterns(events))
	if s.SequentialStreams != 0 || s.WeightedSequential != 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestRenderPatternSummary(t *testing.T) {
	events := []iotrace.Event{
		mkEvent(iotrace.OpOpen, 1, 0, 0, 0, 0),
		mkEvent(iotrace.OpRead, 1, 0, 0, 100, sim.Second),
		mkEvent(iotrace.OpRead, 1, 0, 100, 100, 2*sim.Second),
		mkEvent(iotrace.OpClose, 1, 0, 0, 0, 3*sim.Second),
	}
	out := RenderPatternSummary(events)
	for _, want := range []string{"streams: 1", "cycles: 1", "sequential"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

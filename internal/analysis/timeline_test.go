package analysis

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// allOps is every class a timeline can select: the defined classes and the
// undefined values below 64.
var allOps = func() []iotrace.Op {
	ops := make([]iotrace.Op, 64)
	for i := range ops {
		ops[i] = iotrace.Op(i)
	}
	return ops
}()

// viewOf builds one event per point (start T, request size Y, the point's
// node, file and class) and returns the timeline over all of them: the
// points in stable start-time order. A class of 64 or more is dropped, as
// every timeline drops it.
func viewOf(pts ...Point) Timeline {
	events := make([]iotrace.Event, len(pts))
	for i, p := range pts {
		events[i] = iotrace.Event{Start: p.T, Bytes: p.Y, Node: int32(p.Node), File: p.File, Op: p.Op}
	}
	return OpTimeline(events, allOps...)
}

// pointsOf reads every point of a timeline, in order.
func pointsOf(tl Timeline) []Point {
	pts := make([]Point, tl.Len())
	for i := range pts {
		pts[i] = tl.At(i)
	}
	return pts
}

// copyTimeline is the model a timeline must match: the events whose class
// member accepts, copied into points and stably sorted by start time, the
// way timelines were built before they became views.
func copyTimeline(events []iotrace.Event, member func(iotrace.Op) bool, fileY bool) []Point {
	var pts []Point
	for _, e := range events {
		if !member(e.Op) {
			continue
		}
		y := e.Bytes
		if fileY {
			y = int64(e.File)
		}
		pts = append(pts, Point{T: e.Start, Y: y, Node: int(e.Node), File: e.File, Op: e.Op})
	}
	slices.SortStableFunc(pts, func(a, b Point) int { return cmp.Compare(a.T, b.T) })
	return pts
}

// modelTrace returns a random trace of n events: start times drawn from a
// few shared values (so ties are common), from the int64 ends and from the
// whole range; every class, defined or not, with asynchronous reads that
// outlast later operations; int32 and int64 extremes in node, file and
// size; and phases that interleave.
func modelTrace(rng *rand.Rand, n int) []iotrace.Event {
	shared := []sim.Time{0, 1, sim.Second, 7 * sim.Second, -sim.Second}
	ends := []sim.Time{math.MinInt64, math.MinInt64 + 1, -1, math.MaxInt64 - 1, math.MaxInt64}
	phases := []iotrace.Phase{iotrace.PhaseNone, iotrace.PhaseQuadrature, iotrace.PhaseReload, iotrace.PhaseOutput}
	pick32 := func() int32 {
		switch rng.Intn(6) {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		default:
			return int32(rng.Intn(600) - 50)
		}
	}
	events := make([]iotrace.Event, n)
	for i := range events {
		e := &events[i]
		switch rng.Intn(4) {
		case 0:
			e.Start = shared[rng.Intn(len(shared))]
		case 1:
			e.Start = ends[rng.Intn(len(ends))]
		default:
			e.Start = sim.Time(rng.Uint64())
		}
		if rng.Intn(3) == 0 {
			e.Op = iotrace.Op(rng.Intn(256))
		} else {
			e.Op = iotrace.Op(rng.Intn(iotrace.NumOps + 3))
		}
		e.End = e.Start + sim.Time(rng.Intn(1000))
		if e.Op == iotrace.OpAsyncRead {
			e.End += 100 * sim.Second
		}
		switch rng.Intn(5) {
		case 0:
			e.Bytes = math.MinInt64
		case 1:
			e.Bytes = math.MaxInt64
		default:
			e.Bytes = rng.Int63n(1 << 22)
		}
		e.Node, e.File = pick32(), iotrace.FileID(pick32())
		e.Phase = phases[rng.Intn(len(phases))]
	}
	return events
}

// TestTimelineMatchesCopyModel holds every timeline constructor to the
// copy-then-stable-sort model on random traces, whole and split by phase:
// At reproduces the model's points in order, the view shares the events it
// was given, and its index is sized exactly.
func TestTimelineMatchesCopyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	in := func(ops ...iotrace.Op) func(iotrace.Op) bool {
		// Classes of 64 or more are never members of a timeline.
		return func(op iotrace.Op) bool { return op < 64 && slices.Contains(ops, op) }
	}
	for trial := 0; trial < 60; trial++ {
		trace := modelTrace(rng, rng.Intn(3000))
		var subset []iotrace.Op
		for range rng.Intn(8) {
			subset = append(subset, iotrace.Op(rng.Intn(80)))
		}
		views := [][]iotrace.Event{trace}
		for _, ph := range []iotrace.Phase{iotrace.PhaseNone, iotrace.PhaseQuadrature, iotrace.PhaseReload, iotrace.PhaseOutput} {
			views = append(views, FilterPhase(trace, ph))
		}
		for _, events := range views {
			cases := []struct {
				name string
				got  Timeline
				want []Point
			}{
				{"OpTimeline", OpTimeline(events, subset...), copyTimeline(events, in(subset...), false)},
				{"ReadTimeline", ReadTimeline(events), copyTimeline(events, in(iotrace.OpRead, iotrace.OpAsyncRead), false)},
				{"WriteTimeline", WriteTimeline(events), copyTimeline(events, in(iotrace.OpWrite), false)},
				{"FileTimeline", FileTimeline(events), copyTimeline(events, in(iotrace.OpRead, iotrace.OpAsyncRead, iotrace.OpWrite), true)},
			}
			for _, c := range cases {
				if c.got.Len() != len(c.want) {
					t.Fatalf("trial %d %s: %d points, model %d", trial, c.name, c.got.Len(), len(c.want))
				}
				for i, want := range c.want {
					if got := c.got.At(i); got != want {
						t.Fatalf("trial %d %s: point %d = %+v, model %+v", trial, c.name, i, got, want)
					}
				}
				if c.got.Len() > 0 && (&c.got.events[0] != &events[0] || cap(c.got.idx) != c.got.Len()) {
					t.Fatalf("trial %d %s: view copied its events or sized its index %d for %d points",
						trial, c.name, cap(c.got.idx), c.got.Len())
				}
			}
		}
	}
}

// TestRenderScatterWideSpans renders timelines whose time or size span is
// wider than int64 holds, each a read at the low corner, a read halfway and
// a write at the high corner. The corners must land in the bottom-left and
// top-right cells and the middle read in the middle column: on its size's
// row with a linear axis, on the bottom row with a logarithmic one (every
// size there is at most 1 byte).
func TestRenderScatterWideSpans(t *testing.T) {
	const w, h = 40, 10
	cases := []struct {
		name           string
		low, mid, high Point
		midRowLinear   int
	}{
		{"times ±2^62", Point{T: -1 << 62, Y: 1}, Point{T: 0, Y: 1}, Point{T: 1 << 62, Y: 2}, h - 1},
		{"sizes MinInt64+1..MaxInt64", Point{T: 0, Y: math.MinInt64 + 1}, Point{T: 1, Y: 0}, Point{T: 2, Y: math.MaxInt64}, h / 2},
		{"int64 ends", Point{T: math.MinInt64, Y: math.MinInt64}, Point{T: 0, Y: 0}, Point{T: math.MaxInt64, Y: math.MaxInt64}, h / 2},
	}
	for _, c := range cases {
		c.low.Op, c.mid.Op, c.high.Op = iotrace.OpRead, iotrace.OpRead, iotrace.OpWrite
		for _, logY := range []bool{false, true} {
			out := RenderScatter(viewOf(c.low, c.mid, c.high), PlotOptions{Width: w, Height: h, LogY: logY})
			rows := strings.Split(out, "\n")
			// A row is a label, then the grid between two bars.
			grid := func(row int) string {
				r := rows[row]
				return r[strings.Index(r, "|")+1 : strings.LastIndex(r, "|")]
			}
			midRow := c.midRowLinear
			if logY {
				midRow = h - 1
			}
			if grid(0)[w-1] != '+' || grid(h - 1)[0] != 'o' || grid(midRow)[(w-1)/2] != 'o' {
				t.Fatalf("%s, log %v: want the write top-right, a read bottom-left and one at row %d, column %d:\n%s",
					c.name, logY, midRow, (w-1)/2, out)
			}
		}
	}
}

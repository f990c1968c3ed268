package analysis

import (
	"cmp"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Point is one mark on a timeline figure: an operation plotted at its start
// time, with Y carrying the figure's vertical quantity (request size for the
// operation timelines, file id for the file-access timelines). Timeline.At
// builds one from the event it views.
type Point struct {
	T    sim.Time
	Y    int64
	Node int
	File iotrace.FileID
	Op   iotrace.Op
}

// opMask is a set of operation classes. Every defined class fits in one
// 64-bit word; values outside [0, 64) are never members.
type opMask uint64

func maskOf(ops []iotrace.Op) opMask {
	var m opMask
	for _, op := range ops {
		if uint(op) < 64 {
			m |= 1 << uint(op)
		}
	}
	return m
}

func (m opMask) has(op iotrace.Op) bool { return uint(op) < 64 && m&(1<<uint(op)) != 0 }

// fileMask is the classes FileTimeline plots.
var fileMask = maskOf([]iotrace.Op{iotrace.OpRead, iotrace.OpAsyncRead, iotrace.OpWrite})

// Timeline is a figure's points as a sorted view over a trace: the phase's
// events, shared and never copied, and the indices of the events the figure
// plots, in stable start-time order (equal starts keep capture order). Y is
// each event's request size, or its file id when fileY is set. The view
// costs 4 bytes per point, where a copied Point costs 32; At builds each
// point on the stack as it is read. The zero Timeline is empty.
type Timeline struct {
	events []iotrace.Event
	idx    []int32
	fileY  bool
}

// Len is the number of points.
func (tl Timeline) Len() int { return len(tl.idx) }

// At returns point i, 0 <= i < Len, in start-time order.
func (tl Timeline) At(i int) Point {
	e := tl.event(i)
	return Point{T: e.Start, Y: tl.y(e), Node: int(e.Node), File: e.File, Op: e.Op}
}

// event is the event behind point i. The renderers read points through it
// rather than At: a Point has five fields, one more than the compiler keeps
// in registers, so each At builds it in memory and reads it back, which
// made the ASCII plot three times slower.
func (tl Timeline) event(i int) *iotrace.Event { return &tl.events[tl.idx[i]] }

// y is the Y the timeline plots for e.
func (tl Timeline) y(e *iotrace.Event) int64 {
	if tl.fileY {
		return int64(e.File)
	}
	return e.Bytes
}

// bounds returns the earliest and latest start and the least and greatest
// Y of a non-empty timeline. The index is in start order, so the times are
// its ends.
func (tl Timeline) bounds() (tMin, tMax sim.Time, yMin, yMax int64) {
	tMin, tMax = tl.event(0).Start, tl.event(tl.Len()-1).Start
	yMin, yMax = tl.y(tl.event(0)), tl.y(tl.event(0))
	for i := range tl.Len() {
		y := tl.y(tl.event(i))
		yMin, yMax = min(yMin, y), max(yMax, y)
	}
	return tMin, tMax, yMin, yMax
}

// timeline selects the events whose class is in want and sorts their
// indices stably by start time: the indices start in capture order, so
// equal starts keep it. It counts first so the index is allocated exactly
// once. A trace past 2^31 events cannot be indexed.
func timeline(events []iotrace.Event, want opMask, fileY bool) Timeline {
	if len(events) > math.MaxInt32 {
		panic("analysis: a timeline indexes at most 2^31-1 events")
	}
	n := 0
	for i := range events {
		if want.has(events[i].Op) {
			n++
		}
	}
	if n == 0 {
		return Timeline{}
	}
	idx := make([]int32, 0, n)
	for i := range events {
		if want.has(events[i].Op) {
			idx = append(idx, int32(i))
		}
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(events[a].Start, events[b].Start) })
	return Timeline{events: events, idx: idx, fileY: fileY}
}

// OpTimeline extracts the (time, request size) scatter for the given
// operation classes — the shape of Figures 2-4, 6-7 and 9-14.
func OpTimeline(events []iotrace.Event, ops ...iotrace.Op) Timeline {
	return timeline(events, maskOf(ops), false)
}

// ReadTimeline returns the read-operation timeline (synchronous plus
// asynchronous reads, as the paper's read figures plot).
func ReadTimeline(events []iotrace.Event) Timeline {
	return OpTimeline(events, iotrace.OpRead, iotrace.OpAsyncRead)
}

// WriteTimeline returns the write-operation timeline.
func WriteTimeline(events []iotrace.Event) Timeline {
	return OpTimeline(events, iotrace.OpWrite)
}

// FileTimeline extracts the (time, file id) scatter of read and write
// activity — the shape of Figures 5, 8 and 15-17, where "crosses denote
// writes and diamonds denote reads".
func FileTimeline(events []iotrace.Event) Timeline {
	return timeline(events, fileMask, true)
}

// filter copies the events keep accepts into one exactly sized slice.
func filter(events []iotrace.Event, keep func(*iotrace.Event) bool) []iotrace.Event {
	n := 0
	for i := range events {
		if keep(&events[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]iotrace.Event, 0, n)
	for i := range events {
		if keep(&events[i]) {
			out = append(out, events[i])
		}
	}
	return out
}

// FilterPhase keeps only events captured during one application phase.
func FilterPhase(events []iotrace.Event, phase iotrace.Phase) []iotrace.Event {
	return filter(events, func(e *iotrace.Event) bool { return e.Phase == phase })
}

// csvHeader is the first line WriteCSV emits.
const csvHeader = "time_s,y,node,file,op\n"

// csvChunk is the size of the buffer WriteCSV formats rows through when it
// cannot format into the writer's own, and csvRowMax the longest row: a
// 21-byte time, a 20-byte y and node, an 11-byte file, an operation name of
// at most 10 bytes, four commas and the newline.
const (
	csvChunk  = 32 << 10
	csvRowMax = 21 + 20 + 20 + 11 + 10 + 5
)

// WriteCSV emits a timeline as CSV with header, one row per point:
// time_s, y, node, file, op. A w that can Grow (a bytes.Buffer or
// strings.Builder) is first grown once to the exact output length; if it
// then lends that spare capacity (a bytes.Buffer's AvailableBuffer), the
// rows are formatted straight into it and handed back in one Write.
// Otherwise they go through one fixed chunk, written to w each time it
// fills, and the first Write error ends it. No field ever needs quoting:
// numbers carry no separators and no operation name holds a comma, quote
// or line break.
func WriteCSV(w io.Writer, tl Timeline) error {
	var b []byte
	flushAt := csvChunk - csvRowMax
	if g, ok := w.(interface{ Grow(int) }); ok {
		n := csvLen(tl)
		g.Grow(n)
		if a, ok := w.(interface{ AvailableBuffer() []byte }); ok {
			if spare := a.AvailableBuffer(); cap(spare) >= n {
				b, flushAt = spare, n
			}
		}
	}
	if b == nil {
		b = make([]byte, 0, csvChunk)
	}
	b = append(b, csvHeader...)
	for i := range tl.Len() {
		if len(b) > flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		e := tl.event(i)
		b = appendSeconds6(b, e.Start)
		b = append(b, ',')
		b = strconv.AppendInt(b, tl.y(e), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.Node), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.File), 10)
		b = append(b, ',')
		b = append(b, e.Op.String()...)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// csvLen is the exact length of WriteCSV's output: per row, the time's
// integer digits and six decimals (or strconv's text outside
// appendSeconds6's integer range), each integer's digits and sign, the
// operation name, four commas and the newline.
func csvLen(tl Timeline) int {
	n := len(csvHeader)
	var tmp [32]byte
	for i := range tl.Len() {
		e := tl.event(i)
		if e.Start < 0 || e.Start >= exactSecondsLimit {
			n += len(strconv.AppendFloat(tmp[:0], e.Start.Seconds(), 'f', 6, 64))
		} else {
			n += decimalWidth(int64(e.Start/sim.Second)) + 7
		}
		n += decimalWidth(tl.y(e)) + decimalWidth(int64(e.Node)) + decimalWidth(int64(e.File)) +
			len(e.Op.String()) + 5
	}
	return n
}

// decimalWidth is the length of v in decimal, with its sign.
func decimalWidth(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for u >= 10 {
		u /= 10
		n++
	}
	return n
}

// exactSecondsLimit bounds the times appendSeconds6 formats with integers.
// Below it float64(t)/1e6 lies within 1.2e-7 of the exact quotient, so
// rounding it to six decimals always yields the quotient's own digits.
const exactSecondsLimit = sim.Time(1) << 50

// appendSeconds6 appends t in seconds with six decimals, byte for byte what
// fmt's "%.6f" prints for t.Seconds(). sim.Time counts microseconds, so the
// text is just t/1e6, a point, and t%1e6 zero-padded to six digits.
func appendSeconds6(b []byte, t sim.Time) []byte {
	if t < 0 || t >= exactSecondsLimit {
		return strconv.AppendFloat(b, t.Seconds(), 'f', 6, 64)
	}
	b = strconv.AppendInt(b, int64(t/sim.Second), 10)
	frac := int64(t % sim.Second)
	var d [7]byte
	d[0] = '.'
	for i := 6; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	return append(b, d[:]...)
}

// Burst is one cluster of temporally adjacent operations — e.g. one of
// ESCAT's synchronized quadrature-write groups in Figure 4.
type Burst struct {
	Start sim.Time
	End   sim.Time
	Count int
	Bytes int64
}

// Bursts clusters a timeline's points: a gap larger than maxGap between
// consecutive points starts a new burst.
func Bursts(tl Timeline, maxGap sim.Time) []Burst {
	var bursts []Burst
	for i := range tl.Len() {
		e := tl.event(i)
		if n := len(bursts); n > 0 && e.Start-bursts[n-1].End <= maxGap {
			b := &bursts[n-1]
			b.End = e.Start
			b.Count++
			b.Bytes += tl.y(e)
			continue
		}
		bursts = append(bursts, Burst{Start: e.Start, End: e.Start, Count: 1, Bytes: tl.y(e)})
	}
	return bursts
}

// BurstSpacings returns the time between consecutive burst starts — the
// quantity the paper reads off Figure 4 ("roughly 160 seconds near the
// beginning of the phase to half that near the end").
func BurstSpacings(bursts []Burst) []sim.Time {
	var out []sim.Time
	for i := 1; i < len(bursts); i++ {
		out = append(out, bursts[i].Start-bursts[i-1].Start)
	}
	return out
}

// Throughput returns the mean data rate in bytes/second that the timeline's
// requests sum to over span, or 0 when span is not positive. The caller
// picks the span: a timeline holds start times only, so it cannot see when
// its last operation ended.
func Throughput(tl Timeline, span sim.Time) float64 {
	if span <= 0 {
		return 0
	}
	var bytes int64
	for i := range tl.Len() {
		bytes += tl.y(tl.event(i))
	}
	return float64(bytes) / span.Seconds()
}

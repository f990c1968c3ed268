package analysis

import (
	"cmp"
	"io"
	"slices"
	"strconv"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Point is one mark on a timeline figure: an operation plotted at its start
// time, with Y carrying the figure's vertical quantity (request size for the
// operation timelines, file id for the file-access timelines).
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

// timeline collects the events whose class is in want as points, sorted
// stably by start time. Y is the request size, or the file id when fileY is
// set. It counts first so the result is allocated exactly once.
func timeline(events []iotrace.Event, want opMask, fileY bool) []Point {
	n := 0
	for i := range events {
		if want.has(events[i].Op) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := range events {
		e := &events[i]
		if !want.has(e.Op) {
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

// OpTimeline extracts the (time, request size) scatter for the given
// operation classes — the shape of Figures 2-4, 6-7 and 9-14. Points are
// returned in time order.
func OpTimeline(events []iotrace.Event, ops ...iotrace.Op) []Point {
	return timeline(events, maskOf(ops), false)
}

// ReadTimeline returns the read-operation timeline (synchronous plus
// asynchronous reads, as the paper's read figures plot).
func ReadTimeline(events []iotrace.Event) []Point {
	return OpTimeline(events, iotrace.OpRead, iotrace.OpAsyncRead)
}

// WriteTimeline returns the write-operation timeline.
func WriteTimeline(events []iotrace.Event) []Point {
	return OpTimeline(events, iotrace.OpWrite)
}

// FileTimeline extracts the (time, file id) scatter of read and write
// activity — the shape of Figures 5, 8 and 15-17, where "crosses denote
// writes and diamonds denote reads".
func FileTimeline(events []iotrace.Event) []Point {
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

// csvChunk is the size of the buffer WriteCSV formats rows through, and
// csvRowMax the longest row: a 21-byte time, a 20-byte y and node, an
// 11-byte file, an operation name of at most 10 bytes, four commas and the
// newline.
const (
	csvChunk  = 32 << 10
	csvRowMax = 21 + 20 + 20 + 11 + 10 + 5
)

// WriteCSV emits a timeline as CSV with header, one row per point:
// time_s, y, node, file, op. The rows are formatted through one fixed
// chunk, written to w each time it fills; a w that can Grow (a bytes.Buffer
// or strings.Builder) is first grown once to the exact output length. The
// first Write error ends it. No field ever needs quoting: numbers carry no
// separators and no operation name holds a comma, quote or line break.
func WriteCSV(w io.Writer, pts []Point) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(csvLen(pts))
	}
	b := make([]byte, 0, csvChunk)
	b = append(b, csvHeader...)
	for i := range pts {
		if len(b) > csvChunk-csvRowMax {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
		p := &pts[i]
		b = appendSeconds6(b, p.T)
		b = append(b, ',')
		b = strconv.AppendInt(b, p.Y, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.Node), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.File), 10)
		b = append(b, ',')
		b = append(b, p.Op.String()...)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// csvLen is the exact length of WriteCSV's output: per row, the time's
// integer digits and six decimals (or strconv's text outside
// appendSeconds6's integer range), each integer's digits and sign, the
// operation name, four commas and the newline.
func csvLen(pts []Point) int {
	n := len(csvHeader)
	var tmp [32]byte
	for i := range pts {
		p := &pts[i]
		if p.T < 0 || p.T >= exactSecondsLimit {
			n += len(strconv.AppendFloat(tmp[:0], p.T.Seconds(), 'f', 6, 64))
		} else {
			n += decimalWidth(int64(p.T/sim.Second)) + 7
		}
		n += decimalWidth(p.Y) + decimalWidth(int64(p.Node)) + decimalWidth(int64(p.File)) +
			len(p.Op.String()) + 5
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

// Bursts clusters timeline points: a gap larger than maxGap between
// consecutive points starts a new burst. Points must be time-ordered (as all
// timeline constructors return them).
func Bursts(pts []Point, maxGap sim.Time) []Burst {
	var bursts []Burst
	for _, p := range pts {
		if n := len(bursts); n > 0 && p.T-bursts[n-1].End <= maxGap {
			b := &bursts[n-1]
			b.End = p.T
			b.Count++
			b.Bytes += p.Y
			continue
		}
		bursts = append(bursts, Burst{Start: p.T, End: p.T, Count: 1, Bytes: p.Y})
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

// Throughput returns the mean data rate in bytes/second achieved by the
// given points over their time span (first start to last start plus nothing:
// callers wanting exact spans should pass an explicit makespan).
func Throughput(pts []Point, span sim.Time) float64 {
	if span <= 0 {
		return 0
	}
	var bytes int64
	for _, p := range pts {
		bytes += p.Y
	}
	return float64(bytes) / span.Seconds()
}

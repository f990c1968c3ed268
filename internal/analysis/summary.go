// Package analysis computes the paper's tables and figures from captured I/O
// event traces: operation summaries (Tables 1, 3, 5), request-size bucket
// tables (Tables 2, 4, 6), operation timelines (Figures 2-4, 6-7, 9-14),
// file-access timelines (Figures 5, 8, 15-17), plus the clustering and
// throughput analyses quoted in the running text.
package analysis

import (
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/iotrace"
	"repro/internal/sim"
	"repro/internal/stats"
)

// OpRow is one row of an operation-summary table.
type OpRow struct {
	Label     string
	Count     int64
	Volume    int64 // bytes moved (reads/writes) or distance (seeks)
	HasVolume bool
	NodeTime  sim.Time // durations summed over all nodes
	Pct       float64  // share of total I/O node time, percent
}

// OpSummary is a full operation-summary table: the "All I/O" totals row plus
// one row per operation class present in the trace, in the paper's row order.
type OpSummary struct {
	Total OpRow
	Rows  []OpRow
}

// paperRowOrder is the order the paper lists operation rows in.
var paperRowOrder = []iotrace.Op{
	iotrace.OpRead,
	iotrace.OpAsyncRead,
	iotrace.OpIOWait,
	iotrace.OpWrite,
	iotrace.OpSeek,
	iotrace.OpOpen,
	iotrace.OpClose,
	iotrace.OpLsize,
	iotrace.OpFlush,
}

// Summarize computes an operation summary over a trace. Node time is the sum
// of per-operation durations across all nodes, exactly as the paper's "Node
// Time" columns (which exceed wall-clock time under parallel I/O).
func Summarize(events []iotrace.Event) OpSummary {
	var count [iotrace.NumOps]int64
	var volume [iotrace.NumOps]int64
	var dur [iotrace.NumOps]sim.Time
	for _, e := range events {
		count[e.Op]++
		dur[e.Op] += e.Duration()
		if e.Op.Moves() || e.Op == iotrace.OpSeek {
			volume[e.Op] += e.Bytes
		}
	}
	var totalTime sim.Time
	var totalCount, totalVol int64
	rows := 0
	for _, op := range paperRowOrder {
		totalTime += dur[op]
		totalCount += count[op]
		if count[op] > 0 {
			rows++
		}
		if op.Moves() {
			// The paper's "All I/O" volume sums data moved; seek rows list
			// distance but it does not contribute to the total.
			totalVol += volume[op]
		}
	}
	s := OpSummary{Rows: make([]OpRow, 0, rows)}
	for _, op := range paperRowOrder {
		if count[op] == 0 {
			continue
		}
		pct := 0.0
		if totalTime > 0 {
			pct = 100 * float64(dur[op]) / float64(totalTime)
		}
		s.Rows = append(s.Rows, OpRow{
			Label:     op.String(),
			Count:     count[op],
			Volume:    volume[op],
			HasVolume: op.Moves() || op == iotrace.OpSeek,
			NodeTime:  dur[op],
			Pct:       pct,
		})
	}
	s.Total = OpRow{
		Label: "All I/O", Count: totalCount, Volume: totalVol, HasVolume: true,
		NodeTime: totalTime, Pct: 100,
	}
	return s
}

// Row returns the row with the given label (e.g. "Read"), or nil.
func (s OpSummary) Row(label string) *OpRow {
	for i := range s.Rows {
		if s.Rows[i].Label == label {
			return &s.Rows[i]
		}
	}
	return nil
}

// opLineBytes is the width of one line of a rendered OpSummary, newline
// included, when no value overflows its column.
const opLineBytes = 12 + 13 + 17 + 15 + 11 + 1

// Render formats the summary in the paper's table layout.
func (s OpSummary) Render(title string) string {
	var b strings.Builder
	b.Grow(len(title) + 1 + opLineBytes*(len(s.Rows)+2))
	b.WriteString(title)
	b.WriteByte('\n')
	b.WriteString("Operation           Count   Volume (Bytes)       Time (s) % I/O Time\n")
	// Each row is "%-12s %12d %16s %14.2f %10.2f\n", built on the stack.
	writeRow := func(r OpRow) {
		var buf [2 * opLineBytes]byte
		line := cellLeft(buf[:0], r.Label, 12)
		line = cellInt(append(line, ' '), r.Count, 12)
		if r.HasVolume {
			line = cellInt(append(line, ' '), r.Volume, 16)
		} else {
			line = cellRight(append(line, ' '), "-", 16)
		}
		line = cellFixed2(append(line, ' '), r.NodeTime.Seconds(), 14)
		line = cellFixed2(append(line, ' '), r.Pct, 10)
		b.Write(append(line, '\n'))
	}
	writeRow(s.Total)
	for _, r := range s.Rows {
		writeRow(r)
	}
	return b.String()
}

// SizeTable buckets read and write request sizes into the paper's four size
// classes. As in the paper's tables, asynchronous reads count as reads.
type SizeTable struct {
	Read  *stats.Histogram
	Write *stats.Histogram
}

// Sizes computes the request-size table for a trace.
func Sizes(events []iotrace.Event) SizeTable {
	t := SizeTable{Read: stats.NewPaperHistogram(), Write: stats.NewPaperHistogram()}
	for _, e := range events {
		switch e.Op {
		case iotrace.OpRead, iotrace.OpAsyncRead:
			t.Read.Add(e.Bytes)
		case iotrace.OpWrite:
			t.Write.Add(e.Bytes)
		}
	}
	return t
}

// Render formats the size table in the paper's layout.
func (t SizeTable) Render(title string) string {
	var b strings.Builder
	b.Grow(len(title) + 1 + 3*(10+11*len(stats.PaperBucketLabels)+1))
	b.WriteString(title)
	b.WriteByte('\n')
	// Each line is "%-10s" then " %10s" or " %10d" per bucket, built on
	// the stack.
	var buf [128]byte
	line := cellLeft(buf[:0], "Operation", 10)
	for _, l := range stats.PaperBucketLabels {
		line = cellRight(append(line, ' '), l, 10)
	}
	b.Write(append(line, '\n'))
	row := func(name string, h *stats.Histogram) {
		line := cellLeft(buf[:0], name, 10)
		for _, c := range h.Buckets() {
			line = cellInt(append(line, ' '), c, 10)
		}
		b.Write(append(line, '\n'))
	}
	row("Read", t.Read)
	row("Write", t.Write)
	return b.String()
}

// The cell helpers append one table cell padded as fmt pads its width
// verbs: %-Ns (cellLeft), %Ns (cellRight), %Nd (cellInt) and %N.2f
// (cellFixed2). Width counts runes, as fmt counts them.

func cellLeft(b []byte, s string, width int) []byte {
	return appendSpaces(append(b, s...), width-utf8.RuneCountInString(s))
}

func cellRight(b []byte, s string, width int) []byte {
	return append(appendSpaces(b, width-utf8.RuneCountInString(s)), s...)
}

func cellInt(b []byte, v int64, width int) []byte {
	var buf [20]byte
	num := strconv.AppendInt(buf[:0], v, 10)
	return append(appendSpaces(b, width-len(num)), num...)
}

func cellFixed2(b []byte, v float64, width int) []byte {
	var buf [32]byte
	num := strconv.AppendFloat(buf[:0], v, 'f', 2, 64)
	return append(appendSpaces(b, width-len(num)), num...)
}

func appendSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

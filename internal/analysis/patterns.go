package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/iotrace"
	"repro/internal/sim"
	"repro/internal/stats"
)

// StreamPattern summarizes one access stream (one node's accesses to one
// file) with the metrics the characterization literature the paper builds on
// uses (Miller & Katz; Kotz & Nieuwejaar; §9-§10): sequentiality and
// request-size regularity.
type StreamPattern struct {
	File iotrace.FileID
	Node int

	Accesses int64
	Bytes    int64

	// Sequential counts accesses that start exactly where the previous
	// one ended.
	Sequential int64

	// FixedSize reports whether all accesses share one size, and Size is
	// that size (the most common size otherwise).
	FixedSize bool
	Size      int64
}

// SequentialFraction is the fraction of transitions that were strictly
// sequential (0 for single-access streams).
func (s StreamPattern) SequentialFraction() float64 {
	if s.Accesses <= 1 {
		return 0
	}
	return float64(s.Sequential) / float64(s.Accesses-1)
}

// Patterns computes per-stream pattern statistics over a trace's
// data-moving operations, ordered by (file, node).
func Patterns(events []iotrace.Event) []StreamPattern {
	type key struct {
		file iotrace.FileID
		node int
	}
	type state struct {
		p       *StreamPattern
		lastEnd int64
		started bool
		sizes   map[int64]int64
	}
	streams := map[key]*state{}
	for _, e := range events {
		if !e.Op.Moves() {
			continue
		}
		k := key{e.File, int(e.Node)}
		st := streams[k]
		if st == nil {
			st = &state{
				p:     &StreamPattern{File: e.File, Node: int(e.Node)},
				sizes: map[int64]int64{},
			}
			streams[k] = st
		}
		p := st.p
		p.Accesses++
		p.Bytes += e.Bytes
		st.sizes[e.Bytes]++
		if st.started && e.Offset == st.lastEnd {
			p.Sequential++
		}
		st.started = true
		st.lastEnd = e.Offset + e.Bytes
	}

	out := make([]StreamPattern, 0, len(streams))
	for _, st := range streams {
		p := st.p
		var best, bestCount int64
		for size, count := range st.sizes {
			if count > bestCount || (count == bestCount && size > best) {
				best, bestCount = size, count
			}
		}
		p.Size = best
		p.FixedSize = len(st.sizes) == 1
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// PatternSummary aggregates stream patterns across a whole trace — the
// paper's concluding characterization (§10): "the majority of the request
// patterns are sequential... requests tend to be of fixed size".
type PatternSummary struct {
	Streams            int
	SequentialStreams  int // streams with >= 90% sequential transitions
	FixedSizeStreams   int
	WeightedSequential float64 // access-weighted sequential fraction
}

// SummarizePatterns aggregates per-stream patterns.
func SummarizePatterns(patterns []StreamPattern) PatternSummary {
	var s PatternSummary
	var seqAccesses, transitions int64
	for _, p := range patterns {
		s.Streams++
		if p.Accesses > 1 && p.SequentialFraction() >= 0.9 {
			s.SequentialStreams++
		}
		if p.FixedSize {
			s.FixedSizeStreams++
		}
		seqAccesses += p.Sequential
		if p.Accesses > 1 {
			transitions += p.Accesses - 1
		}
	}
	if transitions > 0 {
		s.WeightedSequential = float64(seqAccesses) / float64(transitions)
	}
	return s
}

// Cycle is one open-access-close session on a file — §10's "cyclic
// behavior, with repeated patterns of file open, access, and close".
type Cycle struct {
	File     iotrace.FileID
	OpenAt   sim.Time
	CloseAt  sim.Time
	Accesses int64
	Bytes    int64
}

// Cycles extracts open-access-close sessions per file from a trace. A file
// opened by many nodes yields one cycle per bracketing open/close depth
// transition (sessions while the file has at least one opener).
func Cycles(events []iotrace.Event) []Cycle {
	type state struct {
		depth int
		cur   *Cycle
	}
	files := map[iotrace.FileID]*state{}
	var out []Cycle
	for _, e := range events {
		st := files[e.File]
		if st == nil {
			st = &state{}
			files[e.File] = st
		}
		switch e.Op {
		case iotrace.OpOpen:
			if st.depth == 0 {
				st.cur = &Cycle{File: e.File, OpenAt: e.Start}
			}
			st.depth++
		case iotrace.OpClose:
			if st.depth > 0 {
				st.depth--
				if st.depth == 0 && st.cur != nil {
					st.cur.CloseAt = e.End
					out = append(out, *st.cur)
					st.cur = nil
				}
			}
		default:
			if st.cur != nil && e.Op.Moves() {
				st.cur.Accesses++
				st.cur.Bytes += e.Bytes
			}
		}
	}
	// Sessions still open at trace end are not emitted (no close bracket).
	sort.Slice(out, func(i, j int) bool {
		if out[i].OpenAt != out[j].OpenAt {
			return out[i].OpenAt < out[j].OpenAt
		}
		return out[i].File < out[j].File
	})
	return out
}

// RenderPatternSummary formats the trace-wide pattern conclusions.
func RenderPatternSummary(events []iotrace.Event) string {
	patterns := Patterns(events)
	s := SummarizePatterns(patterns)
	cycles := Cycles(events)
	var b strings.Builder
	fmt.Fprintf(&b, "Access-pattern summary (§10):\n")
	fmt.Fprintf(&b, "  streams: %d, sequential (>=90%%): %d, fixed-size: %d\n",
		s.Streams, s.SequentialStreams, s.FixedSizeStreams)
	fmt.Fprintf(&b, "  access-weighted sequential fraction: %.1f%%\n", 100*s.WeightedSequential)
	fmt.Fprintf(&b, "  open-access-close cycles: %d\n", len(cycles))
	if len(cycles) > 0 {
		var acc stats.Summary
		for _, c := range cycles {
			acc.Add((c.CloseAt - c.OpenAt).Seconds())
		}
		fmt.Fprintf(&b, "  cycle duration: mean %.2fs, min %.2fs, max %.2fs\n",
			acc.Mean(), acc.Min(), acc.Max())
	}
	return b.String()
}

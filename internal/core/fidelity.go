package core

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Check is one graded cell of a published table. Its grade follows from its
// column: counts and size buckets are exact, volumes and wall clocks close,
// time shares and orders of node time shape.
type Check struct {
	Grade              string // "exact", "close" or "shape"
	Table, Row, Column string
	Got, Want          string // the measured value; what the grade allows
	Pass               bool
}

// Scorecard is a report graded against its application's published tables.
type Scorecard struct {
	App    AppID
	Checks []Check
}

// Fidelity grades the report against the published tables of its
// application; an application outside the paper has no checks.
func (r *Report) Fidelity() Scorecard {
	s := Scorecard{App: r.App}
	if p := paperOf(r.App); p != nil {
		s.Checks = grade(p.Tables, r)
	}
	return s
}

// grade checks every graded cell of tables against the report's run.
func grade(tables []workload.TableSpec, r *Report) []Check {
	var out []Check
	var table string
	add := func(grade, row, column string, pass bool, got, want string) {
		out = append(out, Check{grade, table, row, column, got, want, pass})
	}
	exact := func(row, column string, got, want int64) {
		add("exact", row, column, got == want, fmt.Sprint(got), fmt.Sprint(want))
	}
	within := func(grade, row, column, verb string, b workload.Band, got float64) {
		add(grade, row, column, b[0] <= got && got <= b[1],
			fmt.Sprintf(verb, got), fmt.Sprintf("["+verb+", "+verb+"]", b[0], b[1]))
	}
	var none workload.Band
	for _, t := range tables {
		table = compareName(t.Summary, t.Compare)
		s := r.PhaseSummary(t.Phase)
		var sum int64
		for _, row := range t.Rows[1:] {
			var m analysis.OpRow
			if p := s.Row(row.Op); p != nil {
				m = *p
			}
			sum += m.Count
			exact(row.Op, "count", m.Count, row.Count)
			if row.ExactVolume {
				add("close", row.Op, "volume", m.Volume == row.Volume, fmt.Sprint(m.Volume), fmt.Sprint(row.Volume))
			} else if row.VolumeBand != none {
				within("close", row.Op, "volume", "%.0f", row.VolumeBand, float64(m.Volume))
			}
			if row.Share != none {
				within("shape", row.Op, "%", "%.2f", row.Share, m.Pct)
			}
			if row.Exceeds != "" {
				var below sim.Time
				if p := s.Row(row.Exceeds); p != nil {
					below = p.NodeTime
				}
				add("shape", row.Op, "time s", m.NodeTime > below, fmt.Sprintf("%.2f", m.NodeTime.Seconds()),
					fmt.Sprintf("> %.2f (%s)", below.Seconds(), row.Exceeds))
			}
		}
		// The total is graded against the rows the run measured: a run that
		// matches every row and records no other operation passes.
		add("exact", t.Rows[0].Op, "count", s.Total.Count == sum, fmt.Sprint(s.Total.Count), fmt.Sprintf("%d (the rows' sum)", sum))
		within("close", "Wall clock", "s", "%.0f", t.WallBand, r.programWall(t.Phase).Seconds())

		table = compareName(t.Sizes, t.Compare)
		sz := r.PhaseSizes(t.Phase)
		rb, wb := sz.Read.Buckets(), sz.Write.Buckets()
		for i, name := range [4]string{"<4K", "<64K", "<256K", ">=256K"} {
			exact("Read", name, rb[i], t.Read[i])
			exact("Write", name, wb[i], t.Write[i])
		}
	}
	return out
}

// programWall is the wall clock of the program a phase's table covers: the
// whole run for PhaseNone, else from the phase's first operation's start to
// its last one's end. The run's first program starts with the job, at 0.
func (r *Report) programWall(phase iotrace.Phase) sim.Time {
	if phase == iotrace.PhaseNone {
		return r.Wall
	}
	events := r.phaseEvents(phase)
	if len(events) == 0 {
		return 0
	}
	var start, end sim.Time
	if r.Events[0].Phase != phase {
		start = events[0].Start
	}
	for _, e := range events {
		start, end = min(start, e.Start), max(end, e.End)
	}
	return end - start
}

// String formats the scorecard: one line counting the passing checks of each
// grade, then one indented line per failing check.
func (s Scorecard) String() string {
	grades := []string{"exact", "close", "shape"}
	pass, total := make(map[string]int), make(map[string]int)
	var failed strings.Builder
	for _, c := range s.Checks {
		total[c.Grade]++
		if c.Pass {
			pass[c.Grade]++
		} else {
			fmt.Fprintf(&failed, "  FAIL %s %s %s: measured %s, want %s\n", c.Table, c.Row, c.Column, c.Got, c.Want)
		}
	}
	counts := make([]string, len(grades))
	for i, g := range grades {
		counts[i] = fmt.Sprintf("%s %d/%d", g, pass[g], total[g])
	}
	return fmt.Sprintf("Fidelity (%s): %s\n%s", s.App, strings.Join(counts, ", "), failed.String())
}

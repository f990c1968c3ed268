package core

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/apps/escat"
	"repro/internal/apps/htf"
	"repro/internal/apps/render"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Figure is one reproduced paper figure: its identity and the timeline
// points that regenerate it.
type Figure struct {
	ID     string // paper figure number, e.g. "figure-04"
	Title  string
	Points []analysis.Point
	LogY   bool // request-size axes are logarithmic; file-id axes are not
}

// Figures extracts every paper figure this report's application contributes,
// in figure-number order.
func (r *Report) Figures() []Figure {
	var figs []Figure
	ev := r.Events
	switch r.App {
	case ESCAT:
		initEv := r.phaseEvents(escat.PhaseInit)
		figs = []Figure{
			{ID: "figure-02", Title: "Read operation timeline (ESCAT)", Points: analysis.ReadTimeline(ev), LogY: true},
			{ID: "figure-03", Title: "Read operation detail (ESCAT)", Points: analysis.ReadTimeline(initEv), LogY: true},
			{ID: "figure-04", Title: "Write operation timeline (ESCAT)", Points: analysis.WriteTimeline(ev), LogY: true},
			{ID: "figure-05", Title: "File access timeline (ESCAT)", Points: analysis.FileTimeline(ev)},
		}
	case RENDER:
		figs = []Figure{
			{ID: "figure-06", Title: "Read operation timeline (RENDER)", Points: analysis.ReadTimeline(ev), LogY: true},
			{ID: "figure-07", Title: "Write operation timeline (RENDER)", Points: analysis.WriteTimeline(ev), LogY: true},
			{ID: "figure-08", Title: "File access timeline (RENDER)", Points: analysis.FileTimeline(ev)},
		}
	case HTF:
		phases := []struct {
			name       iotrace.Phase
			rfig, wfig int
			ffig       int
		}{
			{htf.PhasePsetup, 9, 10, 15},
			{htf.PhasePargos, 11, 12, 16},
			{htf.PhasePscf, 13, 14, 17},
		}
		for _, ph := range phases {
			phEv := r.phaseEvents(ph.name)
			figs = append(figs,
				Figure{ID: fmt.Sprintf("figure-%02d", ph.rfig),
					Title:  fmt.Sprintf("Read operation timeline (HTF %s)", ph.name),
					Points: analysis.ReadTimeline(phEv), LogY: true},
				Figure{ID: fmt.Sprintf("figure-%02d", ph.wfig),
					Title:  fmt.Sprintf("Write operation timeline (HTF %s)", ph.name),
					Points: analysis.WriteTimeline(phEv), LogY: true},
				Figure{ID: fmt.Sprintf("figure-%02d", ph.ffig),
					Title:  fmt.Sprintf("File access timeline (HTF %s)", ph.name),
					Points: analysis.FileTimeline(phEv)},
			)
		}
		sort.Slice(figs, func(i, j int) bool { return figs[i].ID < figs[j].ID })
	}
	return figs
}

// Figure returns one figure by paper number (e.g. 4), or an error if this
// report's application does not produce it.
func (r *Report) Figure(number int) (Figure, error) {
	id := fmt.Sprintf("figure-%02d", number)
	for _, f := range r.Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("core: %s has no %s", r.App, id)
}

// Tables renders the report's operation-summary and size tables with the
// paper's table numbers.
func (r *Report) Tables() []string {
	switch r.App {
	case ESCAT:
		return []string{
			r.Summary.Render("Table 1: Number, size, and duration of I/O operations (ESCAT)"),
			r.Sizes.Render("Table 2: Read/write sizes (ESCAT)"),
		}
	case RENDER:
		return []string{
			r.Summary.Render("Table 3: Number, size, and duration of I/O operations (RENDER)"),
			r.Sizes.Render("Table 4: The sizes of reads and writes in RENDER"),
		}
	case HTF:
		var out []string
		for _, ph := range []iotrace.Phase{htf.PhasePsetup, htf.PhasePargos, htf.PhasePscf} {
			out = append(out,
				r.PhaseSummary(ph).Render(fmt.Sprintf("Table 5: I/O operations (HTF %s)", ph)),
				r.PhaseSizes(ph).Render(fmt.Sprintf("Table 6: Read/write sizes (HTF %s)", ph)),
			)
		}
		return out
	}
	return nil
}

// WriteBurstTrend returns the spacing between synchronized write bursts at
// the start and end of ESCAT's quadrature phase (Figure 4's "roughly 160
// seconds ... to half that"). gap is the idle time that separates bursts;
// pass a value below the inter-cycle compute time (30 s suits the
// paper-scale run).
func (r *Report) WriteBurstTrend(gap sim.Time) (early, late sim.Time, bursts int) {
	writes := analysis.WriteTimeline(r.phaseEvents(escat.PhaseQuadrature))
	bs := analysis.Bursts(writes, gap)
	sp := analysis.BurstSpacings(bs)
	if len(sp) == 0 {
		return 0, 0, len(bs)
	}
	return sp[0], sp[len(sp)-1], len(bs)
}

// InitReadThroughput returns the sustained read rate of RENDER's
// initialization phase in bytes/second (§6.2 quotes ~9.5 MB/s).
func (r *Report) InitReadThroughput() float64 {
	init := r.phaseEvents(render.PhaseInit)
	reads := analysis.OpTimeline(init, iotrace.OpAsyncRead)
	if len(reads) == 0 {
		return 0
	}
	var last sim.Time
	for _, e := range init {
		if (e.Op == iotrace.OpIOWait || e.Op == iotrace.OpAsyncRead) && e.End > last {
			last = e.End
		}
	}
	return analysis.Throughput(reads, last-reads[0].T)
}

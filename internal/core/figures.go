package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/workload"
)

// Figure is one reproduced paper figure: its identity and the timeline
// that regenerates it, a sorted view over the report's trace.
type Figure struct {
	ID     string // paper figure number, e.g. "figure-04"
	Title  string
	Points analysis.Timeline
	LogY   bool // request-size axes are logarithmic; file-id axes are not
}

// timelines maps each figure kind to the analysis that draws it.
var timelines = [...]func([]iotrace.Event) analysis.Timeline{
	workload.ReadTimeline:  analysis.ReadTimeline,
	workload.WriteTimeline: analysis.WriteTimeline,
	workload.FileTimeline:  analysis.FileTimeline,
}

// Figures extracts every paper figure this report's application contributes,
// in figure-number order.
func (r *Report) Figures() []Figure {
	p := paperOf(r.App)
	if p == nil {
		return nil
	}
	figs := make([]Figure, len(p.Figures))
	for i, f := range p.Figures {
		figs[i] = r.figure(f)
	}
	return figs
}

// Figure returns one figure by paper number (e.g. 4), or an error if this
// report's application does not produce it. It extracts that figure alone.
func (r *Report) Figure(number int) (Figure, error) {
	id := fmt.Sprintf("figure-%02d", number)
	if p := paperOf(r.App); p != nil {
		for _, f := range p.Figures {
			if f.ID == id {
				return r.figure(f), nil
			}
		}
	}
	return Figure{}, fmt.Errorf("core: %s has no %s", r.App, id)
}

// figure draws one figure spec from the report's trace.
func (r *Report) figure(f workload.FigureSpec) Figure {
	return Figure{ID: f.ID, Title: f.Title, LogY: f.Timeline != workload.FileTimeline,
		Points: timelines[f.Timeline](r.events(f.Phase))}
}

// Tables renders the report's operation-summary and size tables with the
// paper's table numbers.
func (r *Report) Tables() []string {
	p := paperOf(r.App)
	if p == nil {
		return nil
	}
	out := make([]string, 0, 2*len(p.Tables))
	for _, t := range p.Tables {
		out = append(out, r.PhaseSummary(t.Phase).Render(t.Summary), r.PhaseSizes(t.Phase).Render(t.Sizes))
	}
	return out
}

// Headline formats the running-text claim of the paper this report's
// application supports, such as ESCAT's Figure 4 burst spacing; "" for an
// application outside the paper.
func (r *Report) Headline() string {
	p := paperOf(r.App)
	if p == nil {
		return ""
	}
	return p.Headline(r.events)
}

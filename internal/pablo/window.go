package pablo

import (
	"fmt"
	"sort"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// WindowSummary aggregates the activity that *started* within one time
// window: counts, durations and bytes per operation class. Time-window
// summaries "contain similar data [to lifetime summaries], but allow one to
// specify a window of time; this window defines the granularity at which
// data is summarized" (§3.1).
type WindowSummary struct {
	Index    int64 // window number: [Index*W, (Index+1)*W)
	Count    [iotrace.NumOps]int64
	Duration [iotrace.NumOps]sim.Time
	Bytes    [iotrace.NumOps]int64
}

// WindowReducer buckets events by start time into fixed windows.
type WindowReducer struct {
	width   sim.Time
	windows map[int64]*WindowSummary
}

// NewWindowReducer creates a reducer with the given window width (> 0).
func NewWindowReducer(width sim.Time) *WindowReducer {
	if width <= 0 {
		panic(fmt.Sprintf("pablo: window width %v <= 0", width))
	}
	return &WindowReducer{width: width, windows: make(map[int64]*WindowSummary)}
}

// Name implements Reducer.
func (w *WindowReducer) Name() string { return "time-window" }

// Width returns the window width.
func (w *WindowReducer) Width() sim.Time { return w.width }

// Reduce implements Reducer.
func (w *WindowReducer) Reduce(e iotrace.Event) {
	idx := int64(e.Start / w.width)
	s := w.windows[idx]
	if s == nil {
		s = &WindowSummary{Index: idx}
		w.windows[idx] = s
	}
	s.Count[e.Op]++
	s.Duration[e.Op] += e.Duration()
	if e.Op.Moves() {
		s.Bytes[e.Op] += e.Bytes
	}
}

// Windows returns the non-empty windows in time order.
func (w *WindowReducer) Windows() []*WindowSummary {
	out := make([]*WindowSummary, 0, len(w.windows))
	for _, s := range w.windows {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Window returns the summary for window idx (nil if empty).
func (w *WindowReducer) Window(idx int64) *WindowSummary { return w.windows[idx] }

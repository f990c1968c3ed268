// Package pablo reimplements the input/output instrumentation layer of the
// Pablo performance environment as used in the paper (§3.1): invocations of
// I/O routines are bracketed with capture code that records the parameters
// and duration of each call. The captured stream can be kept as a full event
// trace for off-line analysis, reduced in real time into file-lifetime and
// time-window summaries, or both. (The paper's third reduction kind, file-region
// summaries, feeds none of its tables or figures and is not modeled.)
package pablo

import "repro/internal/iotrace"

// Tracer is an iotrace.Recorder that buffers the full event trace and feeds
// any number of attached real-time reducers.
type Tracer struct {
	keep     bool
	events   []iotrace.Event
	reducers []Reducer
}

// Reducer consumes events in capture order and maintains a running summary;
// the paper calls these "real-time reductions" and notes they trade
// computation perturbation for I/O perturbation.
type Reducer interface {
	// Name identifies the reduction in reports.
	Name() string
	// Reduce incorporates one event.
	Reduce(e iotrace.Event)
}

// NewTracer creates a tracer. If keepTrace is false, events are not buffered
// (reduction-only capture, Pablo's low-perturbation configuration).
func NewTracer(keepTrace bool) *Tracer {
	return &Tracer{keep: keepTrace}
}

// Reserve grows the event buffer's capacity to at least n total events. It
// does nothing in reduction-only mode or when the buffer is already large
// enough.
func (t *Tracer) Reserve(n int) {
	if !t.keep || cap(t.events) >= n {
		return
	}
	grown := make([]iotrace.Event, len(t.events), n)
	copy(grown, t.events)
	t.events = grown
}

// Attach adds a reducer that will see every subsequently captured event.
func (t *Tracer) Attach(r Reducer) { t.reducers = append(t.reducers, r) }

// Record implements iotrace.Recorder.
func (t *Tracer) Record(e iotrace.Event) {
	if t.keep {
		t.events = append(t.events, e)
	}
	for _, r := range t.reducers {
		r.Reduce(e)
	}
}

// Events returns the buffered trace (nil in reduction-only mode). The slice
// is owned by the tracer; callers must not modify it.
func (t *Tracer) Events() []iotrace.Event { return t.events }

// Len returns the number of buffered events.
func (t *Tracer) Len() int { return len(t.events) }

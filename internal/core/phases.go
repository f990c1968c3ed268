package core

import (
	"sync"

	"repro/internal/iotrace"
)

// phaseIndex is a report's events grouped by phase. It is built on the
// first per-phase query and then shared, read-only, by every figure, table
// and phase summary of the report, so concurrent readers of one Report all
// see the one partition. The partition sits behind a pointer, so a report
// nobody queries by phase (most fleet cells) carries one word, not a slice
// per phase.
type phaseIndex struct {
	once    sync.Once
	byPhase *[iotrace.NumPhases][]iotrace.Event
}

// phaseEvents returns the events captured during phase, in capture order.
// The slice aliases the report's partition: callers must not modify it.
// r.Events must not change after the first call.
func (r *Report) phaseEvents(phase iotrace.Phase) []iotrace.Event {
	r.phases.once.Do(func() {
		byPhase := partitionPhases(r.Events)
		r.phases.byPhase = &byPhase
	})
	if !phase.Valid() {
		return nil
	}
	return r.phases.byPhase[phase]
}

// phaseOr is the one rule for "a phase, or the whole run": PhaseNone yields
// whole, which the report already holds for every event, and any other
// phase yields derive of that phase's events.
func phaseOr[T any](r *Report, phase iotrace.Phase, whole T, derive func([]iotrace.Event) T) T {
	if phase == iotrace.PhaseNone {
		return whole
	}
	return derive(r.phaseEvents(phase))
}

// events returns one phase's events, or every event for PhaseNone.
func (r *Report) events(phase iotrace.Phase) []iotrace.Event {
	return phaseOr(r, phase, r.Events, func(ev []iotrace.Event) []iotrace.Event { return ev })
}

// partitionPhases groups events by phase, keeping capture order within each
// phase. Applications run their phases one after another, so each phase is
// usually one contiguous run of the trace and its group is a sub-slice of
// events; only when phases interleave (nodes crossing a phase boundary at
// different times) are the events copied, into one backing array sized
// exactly. Every event's phase must be valid.
func partitionPhases(events []iotrace.Event) (out [iotrace.NumPhases][]iotrace.Event) {
	var counts [iotrace.NumPhases]int
	contiguous := true
	for i := 0; i < len(events); {
		j := runEnd(events, i)
		p := events[i].Phase
		if counts[p] > 0 {
			contiguous = false
		}
		counts[p] += j - i
		i = j
	}
	if contiguous {
		for i := 0; i < len(events); {
			j := runEnd(events, i)
			out[events[i].Phase] = events[i:j:j]
			i = j
		}
		return out
	}
	buf := make([]iotrace.Event, len(events))
	off := 0
	for p, n := range counts {
		if n > 0 {
			out[p] = buf[off : off : off+n]
			off += n
		}
	}
	for i := 0; i < len(events); {
		j := runEnd(events, i)
		p := events[i].Phase
		out[p] = append(out[p], events[i:j]...)
		i = j
	}
	return out
}

// runEnd returns the end of the run of events sharing events[i]'s phase.
func runEnd(events []iotrace.Event, i int) int {
	p := events[i].Phase
	j := i + 1
	for j < len(events) && events[j].Phase == p {
		j++
	}
	return j
}

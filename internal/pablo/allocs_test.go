package pablo

import (
	"testing"

	"repro/internal/iotrace"
	"repro/internal/race"
)

// TestRecordAllocCeiling guards the keep-trace append path: once the event
// buffer has been Reserved, Record must append without allocating.
func TestRecordAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	const runs = 4096
	tr := NewTracer(true)
	tr.Reserve(runs + 1)
	ev := iotrace.Event{Op: iotrace.OpWrite, Bytes: 4096}
	avg := testing.AllocsPerRun(runs, func() {
		tr.Record(ev)
	})
	if avg != 0 {
		t.Fatalf("Record allocated %.2f times per event with reserved capacity; want 0", avg)
	}
}

// TestReserveKeepsEvents checks that Reserve sizes the buffer, that growing
// it again preserves already-captured events, and that a reduction-only
// tracer stays unbuffered.
func TestReserveKeepsEvents(t *testing.T) {
	tr := NewTracer(true)
	tr.Reserve(128)
	if got := cap(tr.Events()); got != 128 {
		t.Fatalf("cap after Reserve(128) = %d, want 128", got)
	}
	for i := 0; i < 100; i++ {
		tr.Record(iotrace.Event{Op: iotrace.OpRead, Bytes: int64(i)})
	}
	tr.Reserve(4096)
	if got := tr.Len(); got != 100 {
		t.Fatalf("Len after Reserve = %d, want 100", got)
	}
	if tr.Events()[99].Bytes != 99 {
		t.Fatalf("events reshuffled by Reserve")
	}
	// Reduction-only tracers must stay nil-buffered.
	off := NewTracer(false)
	off.Reserve(1024)
	off.Record(iotrace.Event{Op: iotrace.OpRead})
	if off.Events() != nil {
		t.Fatalf("reduction-only tracer buffered events after Reserve")
	}
}

package pablo

import (
	"testing"
	"testing/quick"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

func ev(op iotrace.Op, file iotrace.FileID, off, bytes int64, start, end sim.Time) iotrace.Event {
	return iotrace.Event{Op: op, File: file, Offset: off, Bytes: bytes, Start: start, End: end}
}

func TestTracerBuffersAndFeedsReducers(t *testing.T) {
	tr := NewTracer(true)
	lt := NewLifetimeReducer()
	tr.Attach(lt)
	tr.Record(ev(iotrace.OpWrite, 1, 0, 100, 0, sim.Second))
	tr.Record(ev(iotrace.OpRead, 1, 0, 50, 2*sim.Second, 3*sim.Second))
	if tr.Len() != 2 {
		t.Fatalf("buffered %d", tr.Len())
	}
	f := lt.File(1)
	if f == nil || f.BytesWritten != 100 || f.BytesRead != 50 {
		t.Fatalf("lifetime %+v", f)
	}
}

func TestTracerReductionOnlyMode(t *testing.T) {
	tr := NewTracer(false)
	tr.Record(ev(iotrace.OpRead, 1, 0, 10, 0, 1))
	if tr.Events() != nil || tr.Len() != 0 {
		t.Fatal("reduction-only tracer buffered events")
	}
}

func TestLifetimeOpenTimeBracketsSessions(t *testing.T) {
	lt := NewLifetimeReducer()
	// Open at 10s (ends 11s), close at 20s (ends 21s): open for 10s.
	lt.Reduce(ev(iotrace.OpOpen, 5, 0, 0, 10*sim.Second, 11*sim.Second))
	lt.Reduce(ev(iotrace.OpClose, 5, 0, 0, 20*sim.Second, 21*sim.Second))
	// Second session 30s-41s.
	lt.Reduce(ev(iotrace.OpOpen, 5, 0, 0, 30*sim.Second, 31*sim.Second))
	lt.Reduce(ev(iotrace.OpClose, 5, 0, 0, 40*sim.Second, 41*sim.Second))
	f := lt.File(5)
	if f.OpenTime != 20*sim.Second {
		t.Fatalf("open time %v, want 20s", f.OpenTime)
	}
	if f.Count[iotrace.OpOpen] != 2 || f.Count[iotrace.OpClose] != 2 {
		t.Fatalf("counts %+v", f.Count)
	}
}

func TestLifetimeNestedOpens(t *testing.T) {
	lt := NewLifetimeReducer()
	// Two nodes hold the file open with overlap: 0-100s and 50-200s; the
	// file is open 0-200s.
	lt.Reduce(ev(iotrace.OpOpen, 1, 0, 0, 0, 0))
	lt.Reduce(ev(iotrace.OpOpen, 1, 0, 0, 50*sim.Second, 50*sim.Second))
	lt.Reduce(ev(iotrace.OpClose, 1, 0, 0, 100*sim.Second, 100*sim.Second))
	lt.Reduce(ev(iotrace.OpClose, 1, 0, 0, 200*sim.Second, 200*sim.Second))
	if got := lt.File(1).OpenTime; got != 200*sim.Second {
		t.Fatalf("open time %v, want 200s", got)
	}
}

func TestLifetimeStillOpenFile(t *testing.T) {
	lt := NewLifetimeReducer()
	lt.Reduce(ev(iotrace.OpOpen, 1, 0, 0, 10*sim.Second, 10*sim.Second))
	f := lt.File(1)
	if f.OpenTime != 0 {
		t.Fatal("unclosed file accumulated OpenTime early")
	}
	if got := f.FinalOpenTime(50 * sim.Second); got != 40*sim.Second {
		t.Fatalf("final open time %v, want 40s", got)
	}
}

func TestLifetimeFilesSorted(t *testing.T) {
	lt := NewLifetimeReducer()
	for _, id := range []iotrace.FileID{9, 3, 7} {
		lt.Reduce(ev(iotrace.OpRead, id, 0, 1, 0, 1))
	}
	files := lt.Files()
	if len(files) != 3 || files[0].File != 3 || files[1].File != 7 || files[2].File != 9 {
		t.Fatalf("order %v", files)
	}
}

func TestWindowReducerBucketsByStartTime(t *testing.T) {
	w := NewWindowReducer(10 * sim.Second)
	w.Reduce(ev(iotrace.OpWrite, 1, 0, 100, 5*sim.Second, 6*sim.Second))   // window 0
	w.Reduce(ev(iotrace.OpWrite, 1, 0, 200, 15*sim.Second, 16*sim.Second)) // window 1
	w.Reduce(ev(iotrace.OpRead, 1, 0, 300, 15*sim.Second, 18*sim.Second))  // window 1
	ws := w.Windows()
	if len(ws) != 2 || ws[0].Index != 0 || ws[1].Index != 1 {
		t.Fatalf("windows %v", ws)
	}
	if ws[1].Count[iotrace.OpWrite] != 1 || ws[1].Bytes[iotrace.OpRead] != 300 {
		t.Fatalf("window 1 %+v", ws[1])
	}
	if ws[1].Duration[iotrace.OpRead] != 3*sim.Second {
		t.Fatalf("window 1 read duration %v", ws[1].Duration[iotrace.OpRead])
	}
	if w.Window(5) != nil {
		t.Fatal("empty window not nil")
	}
	if w.Width() != 10*sim.Second {
		t.Fatal("width")
	}
}

// Property: total counts across windows equal total events, regardless of
// window width.
func TestWindowConservationProperty(t *testing.T) {
	prop := func(starts []uint32, width uint16) bool {
		w := NewWindowReducer(sim.Time(width%1000+1) * sim.Millisecond)
		for _, s := range starts {
			start := sim.Time(s)
			w.Reduce(ev(iotrace.OpRead, 1, 0, 1, start, start+1))
		}
		var total int64
		for _, s := range w.Windows() {
			total += s.Count[iotrace.OpRead]
		}
		return total == int64(len(starts))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReducerNames(t *testing.T) {
	if NewLifetimeReducer().Name() != "file-lifetime" {
		t.Fail()
	}
	if NewWindowReducer(sim.Second).Name() != "time-window" {
		t.Fail()
	}
}

func TestBadReducerConfigsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"window": func() { NewWindowReducer(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

package sddf

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
)

// buildReductions feeds a small synthetic trace through both reducers.
func buildReductions() (*pablo.LifetimeReducer, *pablo.WindowReducer) {
	lt := pablo.NewLifetimeReducer()
	win := pablo.NewWindowReducer(10 * sim.Second)
	events := []iotrace.Event{
		{Op: iotrace.OpOpen, File: 1, Start: 0, End: sim.Second},
		{Op: iotrace.OpWrite, File: 1, Offset: 0, Bytes: 6000, Start: 2 * sim.Second, End: 3 * sim.Second},
		{Op: iotrace.OpRead, File: 1, Offset: 0, Bytes: 2000, Start: 15 * sim.Second, End: 16 * sim.Second},
		{Op: iotrace.OpClose, File: 1, Start: 20 * sim.Second, End: 21 * sim.Second},
		{Op: iotrace.OpWrite, File: 2, Offset: 8192, Bytes: 100, Start: 25 * sim.Second, End: 26 * sim.Second},
	}
	for _, e := range events {
		lt.Reduce(e)
		win.Reduce(e)
	}
	return lt, win
}

// countSummaries decodes a summary stream and tallies its records by tag,
// validating every record against its descriptor on the way.
func countSummaries(t *testing.T, data []byte, ascii bool) map[int]int {
	t.Helper()
	var tr traceReader
	var err error
	if ascii {
		tr, err = NewASCIIReader(bytes.NewReader(data))
	} else {
		tr, err = NewBinaryReader(bytes.NewReader(data))
	}
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for {
		item, err := tr.Next()
		if err == io.EOF {
			return counts
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec, ok := item.(Record); ok {
			counts[rec.Tag]++
		}
	}
}

func TestWriteSummariesRoundTripBothEncodings(t *testing.T) {
	lt, win := buildReductions()
	for _, ascii := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteSummaries(&buf, ascii, lt, win, 30*sim.Second); err != nil {
			t.Fatalf("ascii=%v: %v", ascii, err)
		}
		c := countSummaries(t, buf.Bytes(), ascii)
		// 2 files; 3 windows (0s, 10s, 20s starts).
		if c[LifetimeTag] != 2 {
			t.Errorf("ascii=%v lifetimes %d, want 2", ascii, c[LifetimeTag])
		}
		if c[WindowTag] != 3 {
			t.Errorf("ascii=%v windows %d, want 3", ascii, c[WindowTag])
		}
	}
}

func TestWriteSummariesNilReducersSkipped(t *testing.T) {
	lt, _ := buildReductions()
	var buf bytes.Buffer
	if err := WriteSummaries(&buf, false, lt, nil, sim.Second); err != nil {
		t.Fatal(err)
	}
	if c := countSummaries(t, buf.Bytes(), false); c[LifetimeTag] != 2 || c[WindowTag] != 0 {
		t.Fatalf("counts %v", c)
	}
}

func TestSummaryRecordFieldsValidate(t *testing.T) {
	// Every record constructor must match its descriptor.
	lt, win := buildReductions()
	cases := []struct {
		d Descriptor
		r Record
	}{
		{LifetimeDescriptor(), LifetimeRecord(lt.Files()[0], sim.Second)},
		{WindowDescriptor(), WindowRecord(win.Windows()[0], win.Width())},
	}
	for _, c := range cases {
		if err := validate(c.d, c.r); err != nil {
			t.Errorf("%s: %v", c.d.Name, err)
		}
	}
}

func TestLifetimeRecordContent(t *testing.T) {
	lt, _ := buildReductions()
	f := lt.File(1)
	rec := LifetimeRecord(f, 30*sim.Second)
	// First value is the file id.
	if rec.Values[0].(int32) != 1 {
		t.Fatalf("file id %v", rec.Values[0])
	}
	// Trailing triple: bytes read, bytes written, open time.
	n := len(rec.Values)
	if rec.Values[n-3].(int64) != 2000 || rec.Values[n-2].(int64) != 6000 {
		t.Fatalf("byte totals %v %v", rec.Values[n-3], rec.Values[n-2])
	}
	if rec.Values[n-1].(int64) != int64(20*sim.Second) {
		t.Fatalf("open time %v", rec.Values[n-1])
	}
}

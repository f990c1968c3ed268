package sddf

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

func sampleDescriptor() Descriptor {
	return Descriptor{
		Tag:  7,
		Name: "sample record",
		Fields: []Field{
			{Name: "count", Type: TInt32},
			{Name: "bytes", Type: TInt64},
			{Name: "ratio", Type: TFloat64},
			{Name: "label", Type: TString},
		},
	}
}

func sampleRecord() Record {
	return Record{Tag: 7, Values: []any{int32(-3), int64(1 << 40), 0.125, `quo"ted \ value`}}
}

func roundTrip(t *testing.T, ascii bool) {
	t.Helper()
	var buf bytes.Buffer
	var err error
	var wd interface {
		WriteDescriptor(Descriptor) error
		WriteRecord(Record) error
		Flush() error
	}
	if ascii {
		wd, err = NewASCIIWriter(&buf)
	} else {
		wd, err = NewBinaryWriter(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.WriteDescriptor(sampleDescriptor()); err != nil {
		t.Fatal(err)
	}
	if err := wd.WriteRecord(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := wd.Flush(); err != nil {
		t.Fatal(err)
	}

	var rd interface{ Next() (any, error) }
	if ascii {
		rd, err = NewASCIIReader(&buf)
	} else {
		rd, err = NewBinaryReader(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	item, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := item.(Descriptor)
	if !ok || !reflect.DeepEqual(d, sampleDescriptor()) {
		t.Fatalf("descriptor round trip: %#v", item)
	}
	item, err = rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	r, ok := item.(Record)
	if !ok || !reflect.DeepEqual(r, sampleRecord()) {
		t.Fatalf("record round trip: %#v", item)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryRoundTrip(t *testing.T) { roundTrip(t, false) }
func TestASCIIRoundTrip(t *testing.T)  { roundTrip(t, true) }

func TestRecordBeforeDescriptorRejected(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	if err := bw.WriteRecord(sampleRecord()); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("binary: %v", err)
	}
	aw, _ := NewASCIIWriter(&buf)
	if err := aw.WriteRecord(sampleRecord()); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("ascii: %v", err)
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.WriteDescriptor(sampleDescriptor())
	bad := Record{Tag: 7, Values: []any{int64(1), int64(2), 0.5, "x"}} // first should be int32
	if err := bw.WriteRecord(bad); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
	short := Record{Tag: 7, Values: []any{int32(1)}}
	if err := bw.WriteRecord(short); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("arity mismatch: %v", err)
	}
}

func TestDuplicateTagRejected(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.WriteDescriptor(sampleDescriptor())
	if err := bw.WriteDescriptor(sampleDescriptor()); !errors.Is(err, ErrDuplicateTag) {
		t.Fatalf("dup: %v", err)
	}
}

func TestBadHeaders(t *testing.T) {
	if _, err := NewBinaryReader(strings.NewReader("garbage stream")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("binary: %v", err)
	}
	if _, err := NewASCIIReader(strings.NewReader("not sddf\n")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ascii: %v", err)
	}
}

func TestTruncatedBinaryStream(t *testing.T) {
	var buf bytes.Buffer
	bw, _ := NewBinaryWriter(&buf)
	bw.WriteDescriptor(sampleDescriptor())
	bw.WriteRecord(sampleRecord())
	bw.Flush()
	full := buf.Bytes()
	// Chop mid-record.
	br, err := NewBinaryReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err != nil {
		t.Fatal(err) // descriptor ok
	}
	if _, err := br.Next(); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated record: %v", err)
	}
}

func TestASCIICommentsAndBlanksSkipped(t *testing.T) {
	text := "#SDDFA 1\n" +
		"# a comment\n" +
		"\n" +
		"#D 1 \"r\" x:int32\n" +
		"1 42\n"
	ar, err := NewASCIIReader(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Next(); err != nil {
		t.Fatal(err)
	}
	item, err := ar.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r := item.(Record); r.Values[0].(int32) != 42 {
		t.Fatalf("record %v", r)
	}
}

func TestFieldTypeParse(t *testing.T) {
	for _, ft := range []FieldType{TInt32, TInt64, TFloat64, TString} {
		back, err := ParseFieldType(ft.String())
		if err != nil || back != ft {
			t.Fatalf("round trip %v: %v %v", ft, back, err)
		}
	}
	if _, err := ParseFieldType("bogus"); err == nil {
		t.Fatal("bogus type parsed")
	}
}

func sampleEvents() []iotrace.Event {
	return []iotrace.Event{
		{Node: 0, Op: iotrace.OpOpen, File: 9, Start: 0, End: sim.Second, Mode: iotrace.ModeUnix,
			Phase: iotrace.PhaseInitialization},
		{Node: 5, Op: iotrace.OpWrite, File: 9, Offset: 2048, Bytes: 2048,
			Start: 2 * sim.Second, End: 3 * sim.Second, Mode: iotrace.ModeUnix, Phase: iotrace.PhaseQuadrature},
		{Node: 5, Op: iotrace.OpIOWait, File: 3, Start: 4 * sim.Second, End: 5 * sim.Second,
			Mode: iotrace.ModeAsync, Phase: iotrace.PhaseBurstDrain},
		{Node: 1 << 20, Op: iotrace.OpClose, File: 1<<31 - 1, Start: 6 * sim.Second, End: 6 * sim.Second},
	}
}

func TestTraceRoundTripBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleEvents(), false); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Fatalf("binary trace round trip:\n got %#v", got)
	}
}

func TestTraceRoundTripASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleEvents(), true); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleEvents()) {
		t.Fatalf("ascii trace round trip:\n got %#v", got)
	}
}

// TestReadTraceRejectsInvalidOp checks that the reader refuses every value
// an event cannot hold: an undefined op, values that would wrap when
// narrowed to the event's 8-bit op and mode, negative ids, an unknown phase
// label, and an io-event record whose field types differ. Records the
// Event type cannot express are written raw.
func TestReadTraceRejectsInvalidOp(t *testing.T) {
	bad := sampleEvents()
	bad[0].Op = iotrace.Op(99)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, bad, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("invalid op accepted: %v", err)
	}

	good := EventRecord(2, sampleEvents()[1])
	cases := []struct {
		name  string
		field int
		value any
	}{
		{"op 256", 2, int32(256)},
		{"op -1", 2, int32(-1)},
		{"mode 256", 8, int32(256)},
		{"mode 7", 8, int32(7)},
		{"node -1", 1, int32(-1)},
		{"file -1", 3, int32(-1)},
		{"phase bogus", 9, "bogus"},
	}
	for _, c := range cases {
		rec := Record{Tag: EventTag, Values: append([]any(nil), good.Values...)}
		rec.Values[c.field] = c.value
		if _, err := ReadTrace(bytes.NewReader(rawTrace(t, EventDescriptor(), rec))); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s accepted: %v", c.name, err)
		}
	}

	// A binary int32 field whose varint overflows int32: 1<<32 + 2 would
	// wrap to op 2 (Seek). The record is encoded under a descriptor that
	// declares op as int64 (the varint bytes are the same) and spliced
	// after the real io-event descriptor.
	wide := EventDescriptor()
	wide.Fields[2].Type = TInt64
	rec := Record{Tag: EventTag, Values: append([]any(nil), good.Values...)}
	rec.Values[2] = int64(1<<32 + 2)
	packet := rawTrace(t, wide, rec)[len(rawTrace(t, wide)):]
	stream := append(rawTrace(t, EventDescriptor()), packet...)
	if _, err := ReadTrace(bytes.NewReader(stream)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("op 1<<32+2 accepted: %v", err)
	}

	// An io-event descriptor whose op field is a string.
	d := EventDescriptor()
	d.Fields[2].Type = TString
	rec = Record{Tag: EventTag, Values: append([]any(nil), good.Values...)}
	rec.Values[2] = "Read"
	if _, err := ReadTrace(bytes.NewReader(rawTrace(t, d, rec))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("string op accepted: %v", err)
	}
}

// TestTraceSeqIsPosition checks that WriteTrace numbers its records 1..n in
// the seq column, in both encodings, and that a trace written elsewhere with
// other seq values (7, 3, 100) reads as its events in stream order and
// re-encodes as 1, 2, 3.
func TestTraceSeqIsPosition(t *testing.T) {
	seqs := func(stream []byte) []int64 {
		t.Helper()
		var tr traceReader
		var err error
		if stream[0] == '#' {
			tr, err = NewASCIIReader(bytes.NewReader(stream))
		} else {
			tr, err = NewBinaryReader(bytes.NewReader(stream))
		}
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for {
			item, err := tr.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec, ok := item.(Record); ok {
				out = append(out, rec.Values[0].(int64))
			}
		}
	}
	for _, ascii := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, sampleEvents(), ascii); err != nil {
			t.Fatal(err)
		}
		if got, want := seqs(buf.Bytes()), []int64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("ascii=%v: seq column %v, want %v", ascii, got, want)
		}
	}

	events := sampleEvents()[:3]
	foreign := rawTrace(t, EventDescriptor(),
		EventRecord(7, events[0]), EventRecord(3, events[1]), EventRecord(100, events[2]))
	got, err := ReadTrace(bytes.NewReader(foreign))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("foreign trace read as %#v", got)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, got, false); err != nil {
		t.Fatal(err)
	}
	if seq, want := seqs(buf.Bytes()), []int64{1, 2, 3}; !reflect.DeepEqual(seq, want) {
		t.Errorf("re-encoded seq column %v, want %v", seq, want)
	}
}

// rawTrace encodes one descriptor and its records in the binary form.
func rawTrace(t *testing.T, d Descriptor, recs ...Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteDescriptor(d); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadTraceEmpty(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("")); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("empty stream: %v", err)
	}
}

// Property: any event with a defined op and phase survives binary round trip.
func TestEventRoundTripProperty(t *testing.T) {
	prop := func(node uint8, op uint8, file uint8, off, n int64, s, e uint32, phase uint8) bool {
		ev := iotrace.Event{
			Node: int32(node),
			Op:   iotrace.Op(int(op) % iotrace.NumOps),
			File: iotrace.FileID(file),
			Offset: func() int64 {
				if off < 0 {
					return -off
				}
				return off
			}(),
			Bytes: func() int64 {
				if n < 0 {
					return -n
				}
				return n
			}(),
			Start: sim.Time(s),
			End:   sim.Time(s) + sim.Time(e),
			Mode:  iotrace.ModeUnix,
			Phase: iotrace.Phase(int(phase) % iotrace.NumPhases),
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, []iotrace.Event{ev}, false); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == ev
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

package sddf

import (
	"fmt"
	"io"
	"math"

	"repro/internal/iotrace"
	"repro/internal/sim"
)

// EventTag is the descriptor tag used for I/O trace event records.
const EventTag = 1

// EventDescriptor returns the canonical SDDF descriptor for iotrace.Event.
func EventDescriptor() Descriptor {
	return Descriptor{
		Tag:  EventTag,
		Name: "io-event",
		Fields: []Field{
			{Name: "seq", Type: TInt64},
			{Name: "node", Type: TInt32},
			{Name: "op", Type: TInt32},
			{Name: "file", Type: TInt32},
			{Name: "offset", Type: TInt64},
			{Name: "bytes", Type: TInt64},
			{Name: "start_us", Type: TInt64},
			{Name: "end_us", Type: TInt64},
			{Name: "mode", Type: TInt32},
			{Name: "phase", Type: TString},
		},
	}
}

// EventRecord converts an event into an SDDF record whose seq column holds
// seq, the event's 1-based position in its trace.
func EventRecord(seq int64, e iotrace.Event) Record {
	return Record{
		Tag: EventTag,
		Values: []any{
			seq, e.Node, int32(e.Op), int32(e.File),
			e.Offset, e.Bytes, int64(e.Start), int64(e.End),
			int32(e.Mode), e.Phase.String(),
		},
	}
}

// eventDesc is EventDescriptor, built once for RecordEvent's type check.
var eventDesc = EventDescriptor()

// RecordEvent converts an io-event SDDF record back into an event. Every
// value is checked before it is narrowed into the event: a field of the
// wrong type, a negative node or file, an undefined op or mode, or an
// unknown phase label is ErrBadFormat, never a wrapped value. The seq column
// is type-checked and then dropped: an event's identity is its position in
// the trace it is read into.
func RecordEvent(r Record) (iotrace.Event, error) {
	if r.Tag != EventTag {
		return iotrace.Event{}, fmt.Errorf("%w: not an io-event record", ErrBadFormat)
	}
	if err := validate(eventDesc, r); err != nil {
		return iotrace.Event{}, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	node, op, file, mode := r.Values[1].(int32), r.Values[2].(int32), r.Values[3].(int32), r.Values[8].(int32)
	label := r.Values[9].(string)
	switch {
	case node < 0:
		return iotrace.Event{}, fmt.Errorf("%w: invalid node %d", ErrBadFormat, node)
	case file < 0:
		return iotrace.Event{}, fmt.Errorf("%w: invalid file %d", ErrBadFormat, file)
	case op < 0 || op > math.MaxUint8 || !iotrace.Op(op).Valid():
		return iotrace.Event{}, fmt.Errorf("%w: invalid op %d", ErrBadFormat, op)
	case mode < 0 || mode > math.MaxUint8 || !iotrace.AccessMode(mode).Valid():
		return iotrace.Event{}, fmt.Errorf("%w: invalid mode %d", ErrBadFormat, mode)
	}
	phase, ok := iotrace.ParsePhase(label)
	if !ok {
		return iotrace.Event{}, fmt.Errorf("%w: unknown phase %q", ErrBadFormat, label)
	}
	return iotrace.Event{
		Node:   node,
		File:   iotrace.FileID(file),
		Offset: r.Values[4].(int64),
		Bytes:  r.Values[5].(int64),
		Start:  sim.Time(r.Values[6].(int64)),
		End:    sim.Time(r.Values[7].(int64)),
		Op:     iotrace.Op(op),
		Mode:   iotrace.AccessMode(mode),
		Phase:  phase,
	}, nil
}

// traceWriter is the common surface of BinaryWriter and ASCIIWriter.
type traceWriter interface {
	WriteDescriptor(Descriptor) error
	WriteRecord(Record) error
	Flush() error
}

// WriteTrace encodes a full event trace — descriptor first, then one record
// per event — in binary (ascii=false) or ASCII (ascii=true) form. The i-th
// event's seq column is i+1.
func WriteTrace(w io.Writer, events []iotrace.Event, ascii bool) error {
	var tw traceWriter
	var err error
	if ascii {
		tw, err = NewASCIIWriter(w)
	} else {
		tw, err = NewBinaryWriter(w)
	}
	if err != nil {
		return err
	}
	if err := tw.WriteDescriptor(EventDescriptor()); err != nil {
		return err
	}
	for i, e := range events {
		if err := tw.WriteRecord(EventRecord(int64(i+1), e)); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// traceReader is the common surface of BinaryReader and ASCIIReader.
type traceReader interface {
	Next() (any, error)
}

// ReadTrace decodes a trace written by WriteTrace, auto-detecting the
// encoding from the stream header.
func ReadTrace(r io.Reader) ([]iotrace.Event, error) {
	// Sniff the first byte: binary streams start with 'S', ASCII with '#'.
	var first [1]byte
	if _, err := io.ReadFull(r, first[:]); err != nil {
		return nil, fmt.Errorf("%w: empty stream", ErrBadFormat)
	}
	combined := io.MultiReader(byteReader(first[0]), r)
	var tr traceReader
	var err error
	if first[0] == '#' {
		tr, err = NewASCIIReader(combined)
	} else {
		tr, err = NewBinaryReader(combined)
	}
	if err != nil {
		return nil, err
	}
	var events []iotrace.Event
	for {
		item, err := tr.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		rec, ok := item.(Record)
		if !ok {
			continue // descriptor
		}
		e, err := RecordEvent(rec)
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}

// byteReader yields a single byte then EOF (for un-reading the sniffed byte).
type singleByte struct {
	b    byte
	done bool
}

func byteReader(b byte) io.Reader { return &singleByte{b: b} }

func (s *singleByte) Read(p []byte) (int, error) {
	if s.done || len(p) == 0 {
		return 0, io.EOF
	}
	p[0] = s.b
	s.done = true
	return 1, nil
}

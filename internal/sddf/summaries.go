package sddf

import (
	"io"

	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
)

// Descriptor tags for Pablo reduction records. Tag 1 is the raw event
// record (EventTag).
const (
	LifetimeTag = 2
	WindowTag   = 3
)

// LifetimeDescriptor returns the SDDF layout of a file-lifetime summary
// record: per-operation counts and durations plus byte totals and open time.
func LifetimeDescriptor() Descriptor {
	d := Descriptor{Tag: LifetimeTag, Name: "file-lifetime-summary"}
	d.Fields = append(d.Fields, Field{Name: "file", Type: TInt32})
	for op := 0; op < iotrace.NumOps; op++ {
		name := iotrace.Op(op).String()
		d.Fields = append(d.Fields,
			Field{Name: "count_" + name, Type: TInt64},
			Field{Name: "us_" + name, Type: TInt64},
		)
	}
	d.Fields = append(d.Fields,
		Field{Name: "bytes_read", Type: TInt64},
		Field{Name: "bytes_written", Type: TInt64},
		Field{Name: "open_us", Type: TInt64},
	)
	return d
}

// LifetimeRecord converts one file's lifetime summary to a record. end is
// the run's final time (for still-open files).
func LifetimeRecord(f *pablo.FileLifetime, end sim.Time) Record {
	values := []any{int32(f.File)}
	for op := 0; op < iotrace.NumOps; op++ {
		values = append(values, f.Count[op], int64(f.Duration[op]))
	}
	values = append(values, f.BytesRead, f.BytesWritten, int64(f.FinalOpenTime(end)))
	return Record{Tag: LifetimeTag, Values: values}
}

// WindowDescriptor returns the SDDF layout of a time-window summary record.
func WindowDescriptor() Descriptor {
	d := Descriptor{Tag: WindowTag, Name: "time-window-summary"}
	d.Fields = append(d.Fields,
		Field{Name: "window", Type: TInt64},
		Field{Name: "width_us", Type: TInt64},
	)
	for op := 0; op < iotrace.NumOps; op++ {
		name := iotrace.Op(op).String()
		d.Fields = append(d.Fields,
			Field{Name: "count_" + name, Type: TInt64},
			Field{Name: "us_" + name, Type: TInt64},
			Field{Name: "bytes_" + name, Type: TInt64},
		)
	}
	return d
}

// WindowRecord converts one window summary to a record.
func WindowRecord(w *pablo.WindowSummary, width sim.Time) Record {
	values := []any{w.Index, int64(width)}
	for op := 0; op < iotrace.NumOps; op++ {
		values = append(values, w.Count[op], int64(w.Duration[op]), w.Bytes[op])
	}
	return Record{Tag: WindowTag, Values: values}
}

// WriteSummaries encodes any combination of Pablo reductions (nil arguments
// are skipped) into one SDDF stream. end stamps open times of still-open
// files.
func WriteSummaries(w io.Writer, ascii bool,
	lt *pablo.LifetimeReducer, win *pablo.WindowReducer, end sim.Time) error {
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
	if lt != nil {
		if err := tw.WriteDescriptor(LifetimeDescriptor()); err != nil {
			return err
		}
		for _, f := range lt.Files() {
			if err := tw.WriteRecord(LifetimeRecord(f, end)); err != nil {
				return err
			}
		}
	}
	if win != nil {
		if err := tw.WriteDescriptor(WindowDescriptor()); err != nil {
			return err
		}
		for _, s := range win.Windows() {
			if err := tw.WriteRecord(WindowRecord(s, win.Width())); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

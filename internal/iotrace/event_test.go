package iotrace

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

func TestOpNames(t *testing.T) {
	cases := map[Op]string{
		OpRead:      "Read",
		OpWrite:     "Write",
		OpSeek:      "Seek",
		OpOpen:      "Open",
		OpClose:     "Close",
		OpAsyncRead: "AsynchRead",
		OpIOWait:    "I/O Wait",
		OpLsize:     "Lsize",
		OpFlush:     "Forflush",
	}
	if len(cases) != NumOps {
		t.Fatalf("test covers %d ops, NumOps=%d", len(cases), NumOps)
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d: %q, want %q", int(op), op.String(), want)
		}
		if !op.Valid() {
			t.Errorf("%v not valid", op)
		}
	}
	if Op(99).Valid() || Op(255).Valid() {
		t.Error("out-of-range op valid")
	}
	if Op(99).String() != "Op(99)" {
		t.Errorf("out-of-range name %q", Op(99).String())
	}
}

func TestOpMoves(t *testing.T) {
	moves := map[Op]bool{
		OpRead: true, OpWrite: true, OpAsyncRead: true,
		OpSeek: false, OpOpen: false, OpClose: false,
		OpIOWait: false, OpLsize: false, OpFlush: false,
	}
	for op, want := range moves {
		if op.Moves() != want {
			t.Errorf("%v.Moves() = %v", op, op.Moves())
		}
	}
}

func TestModeNames(t *testing.T) {
	cases := map[AccessMode]string{
		ModeNone:   "NONE",
		ModeUnix:   "M_UNIX",
		ModeLog:    "M_LOG",
		ModeSync:   "M_SYNC",
		ModeRecord: "M_RECORD",
		ModeGlobal: "M_GLOBAL",
		ModeAsync:  "M_ASYNC",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d: %q, want %q", int(m), m.String(), want)
		}
		if !m.Valid() {
			t.Errorf("%v not valid", m)
		}
	}
	if AccessMode(42).Valid() {
		t.Error("mode 42 valid")
	}
	if AccessMode(42).String() != "AccessMode(42)" {
		t.Errorf("out-of-range mode name %q", AccessMode(42).String())
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 2 * sim.Second, End: 5 * sim.Second}
	if e.Duration() != 3*sim.Second {
		t.Fatalf("duration %v", e.Duration())
	}
}

func TestDiscardAcceptsAnything(t *testing.T) {
	Discard.Record(Event{Op: OpRead})
	Discard.Record(Event{}) // no panic, no state
}

func TestPhaseNames(t *testing.T) {
	want := []string{"", "initialization", "quadrature", "reload", "output",
		"rendering", "psetup", "pargos", "pscf", "checkpoint", "burst-drain"}
	if len(want) != NumPhases {
		t.Fatalf("test covers %d phases, NumPhases=%d", len(want), NumPhases)
	}
	for i, label := range want {
		p := Phase(i)
		if p.String() != label || !p.Valid() {
			t.Errorf("phase %d: %q valid=%v, want %q", i, p.String(), p.Valid(), label)
		}
		if back, ok := ParsePhase(label); !ok || back != p {
			t.Errorf("ParsePhase(%q) = %d %v, want %d", label, back, ok, i)
		}
	}
	if Phase(NumPhases).Valid() || Phase(255).Valid() {
		t.Error("out-of-range phase valid")
	}
	if got := Phase(200).String(); got != "Phase(200)" {
		t.Errorf("out-of-range name %q", got)
	}
	if _, ok := ParsePhase("bogus"); ok {
		t.Error("unknown label parsed")
	}
}

// TestEventLayout pins the trace record's size and keeps it pointer-free:
// every trace buffer is a slice of Events, so a wider field grows every
// buffer, and a pointer, string, slice or map makes the garbage collector
// scan them all.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Errorf("Event is %d bytes, want 48", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %v: Event must hold no pointers", path, typ.Kind())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
}

// Package iotrace defines the canonical vocabulary for captured I/O events:
// the operation taxonomy and the timestamped event record emitted by the file
// system layers and consumed by the Pablo instrumentation, the SDDF codec,
// and the analysis tools.
//
// It deliberately mirrors the categories of the SC '95 paper: reads, writes,
// seeks, opens, closes, asynchronous reads with separately-accounted I/O wait
// (RENDER, Table 3), and the Fortran runtime operations lsize and forflush
// that appear in the Hartree–Fock integral phase (Table 5).
package iotrace

import (
	"fmt"

	"repro/internal/sim"
)

// Op identifies an I/O operation class.
type Op uint8

// Operation classes, matching the rows of the paper's Tables 1, 3 and 5.
const (
	OpRead Op = iota
	OpWrite
	OpSeek
	OpOpen
	OpClose
	OpAsyncRead // issue of an asynchronous read (cost of issuing only)
	OpIOWait    // wait for a previously issued asynchronous read
	OpLsize     // Fortran LSIZE: query file size
	OpFlush     // Fortran FORFLUSH: flush buffered output
	numOps
)

// NumOps is the number of distinct operation classes.
const NumOps = int(numOps)

var opNames = [...]string{
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

// String returns the paper's name for the operation class.
func (o Op) String() string {
	if int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Valid reports whether o is a defined operation class.
func (o Op) Valid() bool { return o < numOps }

// Moves reports whether the operation transfers data bytes (reads, writes,
// and asynchronous reads; seeks "move" the pointer but transfer nothing).
func (o Op) Moves() bool {
	return o == OpRead || o == OpWrite || o == OpAsyncRead
}

// FileID identifies a file within one traced run, mirroring the small
// integer file identifiers on the y-axis of the paper's file-access
// timelines (Figures 5, 8, 15–17). SDDF stores it as an int32.
type FileID int32

// Event is one captured I/O operation: who, what, where, how much, and when.
// Start/End are simulated times; End-Start is the operation's duration as it
// would be measured by instrumentation bracketing the call.
//
// The record is 48 bytes and holds no pointers, so a trace buffer is one
// allocation the garbage collector never scans (TestEventLayout pins both).
// The narrow fields come last so they share one padded word. It carries no
// sequence number: capture order is trace order by construction, so an
// event's position in its trace is its identity (the SDDF encoding writes
// that 1-based position in its seq column).
type Event struct {
	Node   int32      // compute node performing the operation
	File   FileID     // file operated on (0 = none, e.g. a failed open)
	Offset int64      // file offset of the access (or seek target)
	Bytes  int64      // bytes transferred (seek: distance moved; others: 0)
	Start  sim.Time   // operation begin
	End    sim.Time   // operation end (return to application)
	Op     Op         // operation class
	Mode   AccessMode // file access mode of the handle used
	Phase  Phase      // application phase active at capture time
}

// Duration returns the operation's elapsed time.
func (e Event) Duration() sim.Time { return e.End - e.Start }

// AccessMode mirrors Intel PFS's six parallel file access modes (§3.2 of the
// paper). It lives here (rather than in the pfs package) so trace records and
// analyses can name modes without importing the file system.
type AccessMode uint8

// The six PFS access modes, plus ModeNone for events with no file context.
const (
	ModeNone   AccessMode = iota
	ModeUnix              // M_UNIX: independent file pointers, POSIX atomicity
	ModeLog               // M_LOG: shared pointer, first-come-first-served, variable length
	ModeSync              // M_SYNC: shared pointer, accesses in node-number order
	ModeRecord            // M_RECORD: independent pointers, FCFS, fixed-length records
	ModeGlobal            // M_GLOBAL: shared pointer, all nodes access the same data
	ModeAsync             // M_ASYNC: independent pointers, unrestricted, no atomicity
)

var modeNames = [...]string{
	ModeNone:   "NONE",
	ModeUnix:   "M_UNIX",
	ModeLog:    "M_LOG",
	ModeSync:   "M_SYNC",
	ModeRecord: "M_RECORD",
	ModeGlobal: "M_GLOBAL",
	ModeAsync:  "M_ASYNC",
}

// String returns Intel's name for the mode.
func (m AccessMode) String() string {
	if int(m) >= len(modeNames) {
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
	return modeNames[m]
}

// Valid reports whether m is a defined access mode (including ModeNone).
func (m AccessMode) Valid() bool { return m <= ModeAsync }

// Phase is the application phase a trace event was captured in. The set is
// closed: the phases of the paper's three applications (ESCAT, RENDER, HTF)
// plus the labels the checkpoint library and the burst tier's drain put on
// their own traffic. PhaseNone is an event captured outside any phase.
type Phase uint8

// The phases, in the order their labels are listed.
const (
	PhaseNone           Phase = iota
	PhaseInitialization       // ESCAT and RENDER start-up reads
	PhaseQuadrature           // ESCAT's quadrature-data writes
	PhaseReload               // ESCAT's quadrature-data re-reads
	PhaseOutput               // ESCAT's result writes
	PhaseRendering            // RENDER's per-frame loop
	PhasePsetup               // HTF's setup program
	PhasePargos               // HTF's integral program
	PhasePscf                 // HTF's self-consistent-field program
	PhaseCheckpoint           // a checkpoint library round
	PhaseBurstDrain           // a burst tier draining to PFS
	numPhases
)

// NumPhases is the number of distinct phases, PhaseNone included.
const NumPhases = int(numPhases)

var phaseNames = [...]string{
	PhaseNone:           "",
	PhaseInitialization: "initialization",
	PhaseQuadrature:     "quadrature",
	PhaseReload:         "reload",
	PhaseOutput:         "output",
	PhaseRendering:      "rendering",
	PhasePsetup:         "psetup",
	PhasePargos:         "pargos",
	PhasePscf:           "pscf",
	PhaseCheckpoint:     "checkpoint",
	PhaseBurstDrain:     "burst-drain",
}

// String returns the phase's label ("" for PhaseNone).
func (p Phase) String() string {
	if int(p) >= len(phaseNames) {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Valid reports whether p is a defined phase (including PhaseNone).
func (p Phase) Valid() bool { return p < numPhases }

// ParsePhase returns the phase whose label is s.
func ParsePhase(s string) (Phase, bool) {
	for p, name := range phaseNames {
		if name == s {
			return Phase(p), true
		}
	}
	return 0, false
}

// Recorder receives events as they are captured. The Pablo tracer implements
// Recorder; the file-system layers emit into one.
type Recorder interface {
	Record(e Event)
}

// Discard is a Recorder that drops all events (for uninstrumented runs).
var Discard Recorder = discard{}

type discard struct{}

func (discard) Record(Event) {}

package sim

import "fmt"

// Time is a point on (or a span of) the simulated clock, measured in
// microseconds. All simulation components share one virtual clock owned by
// the Engine; wall-clock time never enters the simulation, which keeps every
// run deterministic.
type Time int64

// Convenient duration units expressed in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders t as seconds with microsecond precision, e.g. "12.000345s".
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts floating-point seconds into simulated Time, rounding
// to the nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

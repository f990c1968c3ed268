package workload

import "repro/internal/iotrace"

// Paper is one application's share of the paper: its traced run, the figures
// and tables that run reproduces with their published values, and the
// running-text claim it supports. Each application package exports one, and
// core's registry lists them. Phase PhaseNone stands for the whole run.
type Paper struct {
	Name          string // the built app's Name
	Config, Small func() AppConfig
	Machine       func() MachineConfig
	Figures       []FigureSpec // in figure-number order
	Tables        []TableSpec  // in table-number order
	// Headline formats the claim from the run's events of one phase.
	Headline func(events func(iotrace.Phase) []iotrace.Event) string
}

// Timeline is what a figure plots over time: read or write request sizes,
// or the file ids accessed.
type Timeline uint8

// The paper's three figure kinds.
const (
	ReadTimeline Timeline = iota
	WriteTimeline
	FileTimeline
)

// FigureSpec is one paper figure: a timeline of one phase's events.
type FigureSpec struct {
	ID       string // paper figure number, e.g. "figure-04"
	Title    string
	Phase    iotrace.Phase
	Timeline Timeline
}

// TableSpec is one phase's pair of paper tables, the operation summary and
// the request-size buckets, with the values the paper publishes for them and
// the grades the reproduction is held to. Summary and Sizes are the measured
// tables' titles, each beginning "Table N:"; the paper-vs-measured views are
// named "Table N (Compare)". Every count and bucket is graded exactly.
type TableSpec struct {
	Phase                   iotrace.Phase
	Summary, Sizes, Compare string
	Rows                    []PaperRow // "All I/O" first
	Read, Write             [4]int64   // size buckets: <4K, <64K, <256K, >=256K
	// Wall is the published wall clock in seconds, of the whole run for
	// PhaseNone and of the phase's program otherwise; WallBand grades the
	// measured one.
	Wall     float64
	WallBand Band
}

// PaperRow is one row of a published operation summary and its grades. The
// count is graded exactly; the "All I/O" count is graded as the sum of the
// other rows' measured counts, since the paper's printed total need not be
// that sum (ESCAT's Table 1 prints 30 fewer).
type PaperRow struct {
	Op      string
	Count   int64
	Volume  int64 // -1 when the paper prints "-"
	Seconds float64
	Pct     float64

	// VolumeBand grades the measured volume; ExactVolume grades it as
	// equal to Volume instead. Share grades the measured share of the
	// table's node time, in percent. Exceeds names a row whose measured node
	// time this row's must exceed; "" grades no order.
	VolumeBand  Band
	ExactVolume bool
	Share       Band
	Exceeds     string
}

// Band is a closed range {lo, hi} that a measured value must fall in. The
// zero Band grades nothing.
type Band [2]float64

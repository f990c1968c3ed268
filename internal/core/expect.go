package core

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/workload"
)

// PaperTable is one published operation-summary table.
type PaperTable struct {
	Name  string // e.g. "Table 1 (ESCAT)"
	App   AppID
	Phase iotrace.Phase // PhaseNone = whole run; HTF uses per-program phases
	Rows  []workload.PaperRow
}

// PaperSizeTable is one published size-bucket table.
type PaperSizeTable struct {
	Name  string
	App   AppID
	Phase iotrace.Phase
	Read  [4]int64 // <4K, <64K, <256K, >=256K
	Write [4]int64
}

// PaperTables returns the paper's Tables 1, 3 and 5 verbatim, for
// paper-vs-measured reporting.
func PaperTables() []PaperTable {
	var out []PaperTable
	for _, p := range papers {
		for _, t := range p.Tables {
			out = append(out, PaperTable{Name: compareName(t.Summary, t.Compare),
				App: AppID(p.Name), Phase: t.Phase, Rows: t.Rows})
		}
	}
	return out
}

// PaperSizeTables returns the paper's Tables 2, 4 and 6 verbatim.
func PaperSizeTables() []PaperSizeTable {
	var out []PaperSizeTable
	for _, p := range papers {
		for _, t := range p.Tables {
			out = append(out, PaperSizeTable{Name: compareName(t.Sizes, t.Compare),
				App: AppID(p.Name), Phase: t.Phase, Read: t.Read, Write: t.Write})
		}
	}
	return out
}

// Comparison is one rendered paper-vs-measured table and its name, such as
// "compare Table 1 (ESCAT)".
type Comparison struct{ Name, Text string }

// Comparisons renders the paper-vs-measured view of each table the paper
// publishes for the report's application: the operation tables, then the
// size tables, each in table order.
func (r *Report) Comparisons() []Comparison {
	var out []Comparison
	for _, pt := range PaperTables() {
		if pt.App == r.App {
			out = append(out, Comparison{"compare " + pt.Name, CompareTable(pt, r)})
		}
	}
	for _, st := range PaperSizeTables() {
		if st.App == r.App {
			out = append(out, Comparison{"compare " + st.Name, CompareSizeTable(st, r)})
		}
	}
	return out
}

// compareName names a paper-vs-measured view "Table N (label)" after the
// "Table N:" that begins the measured table's title.
func compareName(title, label string) string {
	number, _, _ := strings.Cut(title, ":")
	return number + " (" + label + ")"
}

// compareLineBytes is the width of one line of a rendered CompareTable,
// newline included, when no value overflows its column.
const compareLineBytes = 12 + 13 + 13 + 15 + 15 + 9 + 9 + 1

// CompareTable renders a paper-vs-measured view of one operation table.
func CompareTable(pt PaperTable, r *Report) string {
	s := r.PhaseSummary(pt.Phase)
	var b strings.Builder
	b.Grow(len(pt.Name) + 30 + compareLineBytes*(len(pt.Rows)+1))
	fmt.Fprintf(&b, "%s — paper vs measured\n", pt.Name)
	fmt.Fprintf(&b, "%-12s %12s %12s %14s %14s %8s %8s\n",
		"Operation", "count(P)", "count(M)", "time s(P)", "time s(M)", "%(P)", "%(M)")
	for _, row := range pt.Rows {
		var m *analysis.OpRow
		if row.Op == "All I/O" {
			m = &s.Total
		} else {
			m = s.Row(row.Op)
		}
		if m == nil {
			fmt.Fprintf(&b, "%-12s %12d %12s %14.2f %14s %8.2f %8s\n",
				row.Op, row.Count, "-", row.Seconds, "-", row.Pct, "-")
			continue
		}
		fmt.Fprintf(&b, "%-12s %12d %12d %14.2f %14.2f %8.2f %8.2f\n",
			row.Op, row.Count, m.Count, row.Seconds, m.NodeTime.Seconds(), row.Pct, m.Pct)
	}
	return b.String()
}

// CompareSizeTable renders a paper-vs-measured view of one size table.
func CompareSizeTable(pt PaperSizeTable, r *Report) string {
	sz := r.PhaseSizes(pt.Phase)
	var b strings.Builder
	b.Grow(len(pt.Name) + 256)
	fmt.Fprintf(&b, "%s — paper vs measured (buckets <4K / <64K / <256K / >=256K)\n", pt.Name)
	rb, wb := sz.Read.Buckets(), sz.Write.Buckets()
	fmt.Fprintf(&b, "Read  paper %v measured %v\n", pt.Read, rb)
	fmt.Fprintf(&b, "Write paper %v measured %v\n", pt.Write, wb)
	return b.String()
}

package core

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/apps/htf"
	"repro/internal/iotrace"
)

// PaperRow is one row of a paper table: the published values this
// reproduction targets.
type PaperRow struct {
	Op      string
	Count   int64
	Volume  int64 // -1 when the paper prints "-"
	Seconds float64
	Pct     float64
}

// PaperTable is one published operation-summary table.
type PaperTable struct {
	Name  string // e.g. "Table 1 (ESCAT)"
	App   AppID
	Phase iotrace.Phase // PhaseNone = whole run; HTF uses per-program phases
	Rows  []PaperRow
}

// PaperTables returns the paper's Tables 1, 3 and 5 verbatim, for
// paper-vs-measured reporting.
func PaperTables() []PaperTable {
	return []PaperTable{
		{
			Name: "Table 1 (ESCAT)", App: ESCAT,
			Rows: []PaperRow{
				{"All I/O", 26418, 60983136, 38788.95, 100},
				{"Read", 560, 34226048, 81.19, 0.21},
				{"Write", 13330, 26757088, 16268.50, 41.94},
				{"Seek", 12034, -1, 20884.11, 53.84},
				{"Open", 262, -1, 1179.06, 3.04},
				{"Close", 262, -1, 376.06, 0.97},
			},
		},
		{
			Name: "Table 3 (RENDER)", App: RENDER,
			Rows: []PaperRow{
				{"All I/O", 1504, 979162982, 164.75, 100},
				{"Read", 121, 8457, 0.17, 0.10},
				{"AsynchRead", 436, 880849125, 4.60, 2.79},
				{"I/O Wait", 436, -1, 88.44, 53.68},
				{"Write", 300, 98305400, 31.76, 19.28},
				{"Seek", 4, 0, 0.13, 0.08},
				{"Open", 106, -1, 32.78, 19.90},
				{"Close", 101, -1, 6.87, 4.17},
			},
		},
		{
			Name: "Table 5 (HTF initialization)", App: HTF, Phase: htf.PhasePsetup,
			Rows: []PaperRow{
				{"All I/O", 832, 7267422, 55.23, 100},
				{"Read", 371, 3522497, 15.34, 27.77},
				{"Write", 452, 3744872, 5.50, 9.96},
				{"Seek", 2, 53, 0.43, 0.78},
				{"Open", 4, -1, 31.49, 57.02},
				{"Close", 3, -1, 2.47, 4.47},
			},
		},
		{
			Name: "Table 5 (HTF integral calculation)", App: HTF, Phase: htf.PhasePargos,
			Rows: []PaperRow{
				{"All I/O", 17854, 698992502, 6398.03, 100},
				{"Read", 145, 34393, 0.47, 0.00},
				{"Write", 8535, 698958109, 1996.4, 31.20},
				{"Seek", 130, 0, 0.14, 0.00},
				{"Open", 130, -1, 4056.60, 63.40},
				{"Close", 129, -1, 11.43, 0.18},
				{"Lsize", 128, -1, 15.27, 0.24},
				{"Forflush", 8657, -1, 317.72, 4.98},
			},
		},
		{
			Name: "Table 5 (HTF self-consistent field)", App: HTF, Phase: htf.PhasePscf,
			Rows: []PaperRow{
				{"All I/O", 52832, 4205483650, 32800.99, 100},
				{"Read", 51499, 4201634304, 32263.20, 98.36},
				{"Write", 207, 3849268, 5.88, 0.02},
				{"Seek", 813, 3495198798, 1.67, 0.00},
				{"Open", 157, -1, 518.74, 1.58},
				{"Close", 156, -1, 11.50, 0.04},
			},
		},
	}
}

// PaperSizeTable is one published size-bucket table.
type PaperSizeTable struct {
	Name  string
	App   AppID
	Phase iotrace.Phase
	Read  [4]int64 // <4K, <64K, <256K, >=256K
	Write [4]int64
}

// PaperSizeTables returns the paper's Tables 2, 4 and 6 verbatim.
func PaperSizeTables() []PaperSizeTable {
	return []PaperSizeTable{
		{Name: "Table 2 (ESCAT)", App: ESCAT,
			Read: [4]int64{297, 3, 260, 0}, Write: [4]int64{13330, 0, 0, 0}},
		{Name: "Table 4 (RENDER)", App: RENDER,
			Read: [4]int64{121, 0, 0, 436}, Write: [4]int64{200, 0, 0, 100}},
		{Name: "Table 6 (HTF initialization)", App: HTF, Phase: htf.PhasePsetup,
			Read: [4]int64{151, 220, 0, 0}, Write: [4]int64{218, 234, 0, 0}},
		{Name: "Table 6 (HTF integral calculation)", App: HTF, Phase: htf.PhasePargos,
			Read: [4]int64{143, 2, 0, 0}, Write: [4]int64{2, 1, 8532, 0}},
		{Name: "Table 6 (HTF self-consistent field)", App: HTF, Phase: htf.PhasePscf,
			Read: [4]int64{165, 109, 51225, 0}, Write: [4]int64{43, 158, 6, 0}},
	}
}

// summaryFor picks the measured summary matching a paper table.
func summaryFor(r *Report, phase iotrace.Phase) analysis.OpSummary {
	if phase == iotrace.PhaseNone {
		return r.Summary
	}
	return r.PhaseSummary(phase)
}

// compareLineBytes is the width of one line of a rendered CompareTable,
// newline included, when no value overflows its column.
const compareLineBytes = 12 + 13 + 13 + 15 + 15 + 9 + 9 + 1

// CompareTable renders a paper-vs-measured view of one operation table.
func CompareTable(pt PaperTable, r *Report) string {
	s := summaryFor(r, pt.Phase)
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
	var sz analysis.SizeTable
	if pt.Phase == iotrace.PhaseNone {
		sz = r.Sizes
	} else {
		sz = r.PhaseSizes(pt.Phase)
	}
	var b strings.Builder
	b.Grow(len(pt.Name) + 256)
	fmt.Fprintf(&b, "%s — paper vs measured (buckets <4K / <64K / <256K / >=256K)\n", pt.Name)
	rb, wb := sz.Read.Buckets(), sz.Write.Buckets()
	fmt.Fprintf(&b, "Read  paper %v measured %v\n", pt.Read, rb)
	fmt.Fprintf(&b, "Write paper %v measured %v\n", pt.Write, wb)
	return b.String()
}

package escat_test

import (
	"testing"

	"repro/internal/core"
)

// These tests grade the paper-scale run against Tables 1-2 through core's
// fidelity checker, one column at a time. The published values and their
// bands live once, in Paper; each test names the cells it covers and how
// many checks grade them.

var paperCard *core.Scorecard

// gradeCells fails unless want checks of the paper-scale run's scorecard
// satisfy keep and every one of them passes.
func gradeCells(t *testing.T, want int, keep func(core.Check) bool) {
	t.Helper()
	if paperCard == nil {
		r, err := core.Run(core.PaperStudy(core.ESCAT))
		if err != nil {
			t.Fatal(err)
		}
		sc := r.Fidelity()
		paperCard = &sc
	}
	n := 0
	for _, c := range paperCard.Checks {
		if !keep(c) {
			continue
		}
		n++
		if !c.Pass {
			t.Errorf("%s %s %s %s: measured %s, want %s", c.Grade, c.Table, c.Row, c.Column, c.Got, c.Want)
		}
	}
	if n != want {
		t.Errorf("%d checks graded, want %d", n, want)
	}
}

const (
	table1 = "Table 1 (ESCAT)"
	table2 = "Table 2 (ESCAT)"
)

func TestPaperOperationCounts(t *testing.T) {
	// Table 1 counts, reproduced exactly; the total is the rows' sum.
	gradeCells(t, 6, func(c core.Check) bool { return c.Table == table1 && c.Column == "count" })
}

func TestPaperSizeBuckets(t *testing.T) {
	// Table 2 read and write buckets, reproduced exactly.
	gradeCells(t, 8, func(c core.Check) bool { return c.Table == table2 })
}

func TestPaperVolumesApproximate(t *testing.T) {
	// The read and write volume bands of Table 1.
	gradeCells(t, 2, func(c core.Check) bool { return c.Table == table1 && c.Column == "volume" })
}

func TestPaperTimeShape(t *testing.T) {
	// Table 1 shape: seek and write dominate, seek > write, reads
	// negligible, opens a few percent.
	gradeCells(t, 5, func(c core.Check) bool { return c.Table == table1 && c.Grade == "shape" })
}

func TestPaperWallClock(t *testing.T) {
	// "roughly one and three quarter hours"
	gradeCells(t, 1, func(c core.Check) bool { return c.Row == "Wall clock" })
}

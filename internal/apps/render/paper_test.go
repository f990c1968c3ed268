package render_test

import (
	"testing"

	"repro/internal/core"
)

// These tests grade the paper-scale run against Tables 3-4 through core's
// fidelity checker, one column at a time. The published values and their
// bands live once, in Paper; each test names the cells it covers and how
// many checks grade them.

var paperCard *core.Scorecard

// gradeCells fails unless want checks of the paper-scale run's scorecard
// satisfy keep and every one of them passes.
func gradeCells(t *testing.T, want int, keep func(core.Check) bool) {
	t.Helper()
	if paperCard == nil {
		r, err := core.Run(core.PaperStudy(core.RENDER))
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
	table3 = "Table 3 (RENDER)"
	table4 = "Table 4 (RENDER)"
)

func TestPaperOperationCounts(t *testing.T) {
	// Table 3 counts, reproduced exactly; the total is the rows' sum.
	gradeCells(t, 8, func(c core.Check) bool { return c.Table == table3 && c.Column == "count" })
}

func TestPaperVolumes(t *testing.T) {
	// The read and asynchronous read volume bands, the exact write volume,
	// and seeks that move nothing.
	gradeCells(t, 4, func(c core.Check) bool { return c.Table == table3 && c.Column == "volume" })
}

func TestPaperSizeBuckets(t *testing.T) {
	// Table 4 read and write buckets, reproduced exactly.
	gradeCells(t, 8, func(c core.Check) bool { return c.Table == table4 })
}

func TestPaperTimeShape(t *testing.T) {
	// Table 3 shape: I/O waits dominate, writes and opens follow.
	gradeCells(t, 5, func(c core.Check) bool { return c.Table == table3 && c.Grade == "shape" })
}

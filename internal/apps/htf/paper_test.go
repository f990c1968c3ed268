package htf_test

import (
	"testing"

	"repro/internal/core"
)

// These tests grade the paper-scale run against Tables 5-6 through core's
// fidelity checker, one program and column at a time. The published values
// and their bands live once, in Paper; each test names the cells it covers
// and how many checks grade them.

var paperCard *core.Scorecard

// gradeCells fails unless want checks of the paper-scale run's scorecard
// satisfy keep and every one of them passes.
func gradeCells(t *testing.T, want int, keep func(core.Check) bool) {
	t.Helper()
	if paperCard == nil {
		r, err := core.Run(core.PaperStudy(core.HTF))
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

// The Table 5 and Table 6 names of each program's checks.
const (
	psetup5, psetup6 = "Table 5 (HTF initialization)", "Table 6 (HTF initialization)"
	pargos5, pargos6 = "Table 5 (HTF integral calculation)", "Table 6 (HTF integral calculation)"
	pscf5, pscf6     = "Table 5 (HTF self-consistent field)", "Table 6 (HTF self-consistent field)"
)

func TestPsetupCounts(t *testing.T) {
	// psetup counts, and the seek volume of exactly 53 bytes (26 + 27).
	gradeCells(t, 7, func(c core.Check) bool {
		return c.Table == psetup5 && (c.Column == "count" || c.Row == "Seek" && c.Column == "volume")
	})
}

func TestPsetupSizesAndVolumes(t *testing.T) {
	gradeCells(t, 11, func(c core.Check) bool {
		return c.Table == psetup6 || c.Table == psetup5 && c.Column == "volume"
	})
}

func TestPargosCounts(t *testing.T) {
	// pargos counts, the zero seek volume and the write volume band.
	gradeCells(t, 10, func(c core.Check) bool {
		return c.Table == pargos5 && (c.Column == "count" || c.Column == "volume")
	})
}

func TestPargosSizes(t *testing.T) {
	gradeCells(t, 8, func(c core.Check) bool { return c.Table == pargos6 })
}

func TestPscfCounts(t *testing.T) {
	gradeCells(t, 6, func(c core.Check) bool { return c.Table == pscf5 && c.Column == "count" })
}

func TestPscfSizesAndVolumes(t *testing.T) {
	// The read volume band and the seek distance: five rewinds of ~700 MB.
	gradeCells(t, 10, func(c core.Check) bool {
		return c.Table == pscf6 || c.Table == pscf5 && c.Column == "volume"
	})
}

func TestTimeShapes(t *testing.T) {
	// Table 5's headline shapes: opens dominate psetup and pargos, psetup's
	// reads cost more than its buffered writes, reads dominate pscf.
	gradeCells(t, 5, func(c core.Check) bool { return c.Grade == "shape" })
}

func TestProgramWallClocks(t *testing.T) {
	// Paper: 127 s, 1173 s, 1008 s; psetup is measured from time 0.
	gradeCells(t, 3, func(c core.Check) bool { return c.Row == "Wall clock" })
}

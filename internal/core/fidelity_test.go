package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

var (
	paperMu      sync.Mutex
	paperReports = map[AppID]*Report{}
)

// paperReport returns app's paper-scale report, run once per test binary and
// then shared: the tests that take it only read it.
func paperReport(t *testing.T, app AppID) *Report {
	t.Helper()
	paperMu.Lock()
	defer paperMu.Unlock()
	if r := paperReports[app]; r != nil {
		return r
	}
	r, err := Run(PaperStudy(app))
	if err != nil {
		t.Fatal(err)
	}
	paperReports[app] = r
	return r
}

// TestPaperFidelityContract grades each paper-scale run against its app's
// published Tables 1-6: every count and size bucket exactly, the graded
// volumes and each table's wall clock within their bands, and the graded
// time shares and orders of node time.
func TestPaperFidelityContract(t *testing.T) {
	for _, app := range Apps() {
		t.Run(string(app), func(t *testing.T) {
			sc := paperReport(t, app).Fidelity()
			if len(sc.Checks) == 0 {
				t.Fatal("no checks")
			}
			for _, c := range sc.Checks {
				if !c.Pass {
					t.Errorf("%s %s %s %s: measured %s, want %s", c.Grade, c.Table, c.Row, c.Column, c.Got, c.Want)
				}
			}
		})
	}
}

// TestFidelityNamesTheFailingCheck narrows one volume band to just below the
// measured volume: exactly that check fails, and the scorecard counts it and
// names it.
func TestFidelityNamesTheFailingCheck(t *testing.T) {
	r := paperReport(t, ESCAT)
	tables := slices.Clone(paperOf(ESCAT).Tables)
	tables[0].Rows = slices.Clone(tables[0].Rows)
	i := slices.IndexFunc(tables[0].Rows, func(row workload.PaperRow) bool { return row.Op == "Write" })
	got := float64(r.Summary.Row("Write").Volume)
	tables[0].Rows[i].VolumeBand = workload.Band{got - 1000, got - 1}

	sc := Scorecard{App: ESCAT, Checks: grade(tables, r)}
	var failed []Check
	for _, c := range sc.Checks {
		if !c.Pass {
			failed = append(failed, c)
		}
	}
	if len(failed) != 1 || failed[0].Table != "Table 1 (ESCAT)" || failed[0].Row != "Write" || failed[0].Column != "volume" {
		t.Fatalf("failed checks %+v, want only Table 1 (ESCAT) Write volume", failed)
	}
	lines := strings.Split(sc.String(), "\n")
	if len(lines) != 3 || lines[2] != "" ||
		!strings.HasPrefix(lines[0], "Fidelity (escat): exact ") || !strings.Contains(lines[0], ", close 2/3, ") ||
		!strings.HasPrefix(lines[1], "  FAIL Table 1 (ESCAT) Write volume: measured ") {
		t.Errorf("scorecard does not count and name the failing check:\n%s", sc)
	}
}

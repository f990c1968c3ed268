package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

const paperGolden = "testdata/paper_output.golden"

// paperOutputDigests takes the three paper-scale reports and hashes every
// rendered artefact: each figure's CSV, ASCII and SVG bytes, each Tables()
// string, and each paper-vs-measured comparison table. One line per
// artefact, "name sha256".
func paperOutputDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(sum[:]))
	}
	for _, app := range Apps() {
		r := paperReport(t, app)
		for i, tbl := range r.Tables() {
			line(fmt.Sprintf("%s/table-%d", app, i), []byte(tbl))
		}
		for _, pt := range PaperTables() {
			if pt.App == app {
				line(fmt.Sprintf("%s/compare %s", app, pt.Name), []byte(CompareTable(pt, r)))
			}
		}
		for _, st := range PaperSizeTables() {
			if st.App == app {
				line(fmt.Sprintf("%s/compare %s", app, st.Name), []byte(CompareSizeTable(st, r)))
			}
		}
		for _, fig := range r.Figures() {
			var csv bytes.Buffer
			if err := analysis.WriteCSV(&csv, fig.Points); err != nil {
				t.Fatal(err)
			}
			yl := "file id"
			if fig.LogY {
				yl = "request size"
			}
			ascii := analysis.RenderScatter(fig.Points, analysis.PlotOptions{
				Title: fig.Title, LogY: fig.LogY, YLabel: yl, XLabel: "time",
			})
			svg := analysis.RenderSVG(fig.Points, analysis.SVGOptions{
				Title: fig.Title, LogY: fig.LogY, YLabel: yl, XLabel: "time (s)",
			})
			line(fmt.Sprintf("%s/%s.csv", app, fig.ID), csv.Bytes())
			line(fmt.Sprintf("%s/%s.txt", app, fig.ID), []byte(ascii))
			line(fmt.Sprintf("%s/%s.svg", app, fig.ID), []byte(svg))
		}
	}
	return b.String()
}

// TestPaperFigureDigests locks the bytes of every paper table and figure
// rendering at paper scale. Regenerate with
//
//	go test ./internal/core -run TestPaperFigureDigests -update
//
// and only when an output change is intended and explained.
func TestPaperFigureDigests(t *testing.T) {
	got := paperOutputDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(paperGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("golden has %d lines, output has %d", len(wantLines), len(gotLines))
	}
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("artefact %d differs:\n want %s\n  got %s", i, wantLines[i], gotLines[i])
		}
	}
}

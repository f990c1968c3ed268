package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

const paperGolden = "testdata/paper_output.golden"

// paperOutputDigests takes the three paper-scale reports and hashes every
// rendered artefact: each Tables() string, each paper-vs-measured comparison
// and each figure file WriteFigures hands out (CSV, ASCII and SVG), the
// bytes paperrepro writes. One line per artefact, "name sha256".
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
		for _, c := range r.Comparisons() {
			line(fmt.Sprintf("%s/%s", app, c.Name), []byte(c.Text))
		}
		if err := r.WriteFigures(func(name string, write func(io.Writer) error) error {
			var buf bytes.Buffer
			if err := write(&buf); err != nil {
				return err
			}
			line(fmt.Sprintf("%s/%s", app, name), buf.Bytes())
			return nil
		}); err != nil {
			t.Fatal(err)
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

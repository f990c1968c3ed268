package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSmokePaperTablesDeterministic(t *testing.T) {
	capture := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-app", "escat", "-no-figures"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := capture(), capture()
	if a == "" || a != b {
		t.Error("paperrepro output empty or nondeterministic")
	}
	for _, want := range []string{"==== escat", "paper", "Figure 4 burst structure"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestSmokeFigures holds the files paperrepro writes to the digests
// internal/core's TestPaperFigureDigests locks: each file under render/ has
// the SHA-256 on its line of the paper output golden, and each figure line
// there has its file.
func TestSmokeFigures(t *testing.T) {
	golden, err := os.ReadFile("../../internal/core/testdata/paper_output.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(golden), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		if file, ok := strings.CutPrefix(name, "render/figure-"); ok {
			want["figure-"+file] = sum
		}
	}
	if len(want) != 9 {
		t.Fatalf("golden has %d render figure files, want 9", len(want))
	}

	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-app", "render", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "plus .txt and .svg renderings"); n != 3 {
		t.Errorf("%d figures reported, want 3:\n%.400s", n, buf.String())
	}
	entries, err := os.ReadDir(filepath.Join(dir, "render"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("wrote %d files, the golden has %d", len(entries), len(want))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "render", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[e.Name()] {
			t.Errorf("render/%s: sha256 %s, golden %q", e.Name(), got, want[e.Name()])
		}
	}
}

// TestBadOutFailsBeforeAnyRun: an -out that cannot be a directory fails
// before any study runs, so nothing is printed.
func TestBadOutFailsBeforeAnyRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-out", file}, &buf); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Errorf("got %v, want a not-a-directory error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("printed output before failing:\n%.400s", buf.String())
	}
}

// TestAppFlagChecksTheRegistry: an unknown or wrongly cased -app value fails
// before any run, naming the valid applications.
func TestAppFlagChecksTheRegistry(t *testing.T) {
	for _, app := range []string{"ESCAT", "bogus"} {
		var buf bytes.Buffer
		err := run([]string{"-app", app, "-no-figures"}, &buf)
		want := `-app "` + app + `": want one of escat, render, htf`
		if err == nil || err.Error() != want {
			t.Errorf("-app %s: error %v, want %q", app, err, want)
		}
		if buf.Len() != 0 {
			t.Errorf("-app %s: printed output before failing:\n%s", app, buf.String())
		}
	}
}

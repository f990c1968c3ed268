package main

import (
	"bytes"
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

func TestSmokeFigures(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-app", "escat", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "plus .txt and .svg renderings") {
		t.Errorf("no figure files reported:\n%.400s", buf.String())
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

package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

const corpusDir = "../../scenarios"

// TestCorpusValidates: every checked-in scenario, and each variant, parses,
// validates and builds. This is the cheap half of the CI smoke job.
func TestCorpusValidates(t *testing.T) {
	files, err := collectScenarioFiles([]string{corpusDir})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("corpus has shrunk to %d scenarios; want at least 10", len(files))
	}
	for _, f := range files {
		sc, err := scenario.Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		for _, v := range append([]*scenario.Scenario{sc}, sc.Variants...) {
			if _, _, err := v.Build(); err != nil {
				t.Errorf("%s: %v", f, err)
			}
			if v.Assertions == nil || v.Assertions.Expected == "" {
				t.Errorf("%s: %s: corpus scenarios must declare assertions.expected", f, v.Name)
			}
		}
	}
}

// TestCorpusExemplars executes one expected-ok and one expected-degraded
// scenario end to end and checks the verdicts, mirroring the CI smoke job.
func TestCorpusExemplars(t *testing.T) {
	for _, name := range []string{"outage-recovery.yaml", "unprotected-outage.yaml"} {
		path := filepath.Join(corpusDir, name)
		sc, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Execute()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Pass() {
			t.Errorf("%s: assertions failed: %+v", name, res.Checks)
		}
		want := scenario.Outcome(sc.Assertions.Expected)
		if res.M.Outcome != want {
			t.Errorf("%s: outcome %v, want %v", name, res.M.Outcome, want)
		}
	}
}

// TestCorpusRunAll executes the entire corpus through the CLI: the
// long-running guarantee that every what-if in scenarios/ stays green.
func TestCorpusRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus execution in -short mode")
	}
	var buf bytes.Buffer
	if err := run([]string{"scenario", "run", corpusDir}, &buf); err != nil {
		t.Fatalf("corpus run failed: %v\n%s", err, tail(buf.String(), 2000))
	}
	if strings.Contains(buf.String(), "VIOLATED") {
		t.Fatalf("corpus run has violated bounds:\n%s", tail(buf.String(), 2000))
	}
}

func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioFlagDrivesStudy: -scenario replaces the flag-driven knobs with
// the file's study and stays deterministic.
func TestScenarioFlagDrivesStudy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cachey.yaml")
	body := `
name: cachey
workload:
  app: escat
  scale: small
features:
  cache:
    enabled: true
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	a := capture(t, "-scenario", path)
	b := capture(t, "-scenario", path)
	if a != b {
		t.Error("scenario-driven iochar run not byte-identical")
	}
	if !strings.Contains(a, "escat:") || !strings.Contains(a, "Cache effectiveness:") {
		t.Errorf("scenario study not applied (app header or cache section missing):\n%.600s", a)
	}
}

// TestScenarioFlagMatchesFlagRun: the default-shape scenario reproduces the
// equivalent flag invocation byte for byte. The scenario DSL defaults
// failover on (stress parity); bare iochar runs without it, so the scenario
// pins it off to match.
func TestScenarioFlagMatchesFlagRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "default.yaml")
	body := `
workload:
  app: escat
  scale: small
features:
  failover:
    enabled: false
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	flags := capture(t, "-app", "escat", "-small")
	scen := capture(t, "-scenario", path)
	if flags != scen {
		t.Fatalf("scenario run diverged from flag run\nflags:\n%.400s\nscenario:\n%.400s", flags, scen)
	}
}

func TestScenarioFlagBadFile(t *testing.T) {
	if err := run([]string{"-scenario", "/does/not/exist.yaml"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing scenario file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(path, []byte("workload:\n  app: doom\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", path}, &bytes.Buffer{}); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	err := run([]string{"-scenario", "../../scenarios/whatif-cache.yaml"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "has 5 variants but iochar runs one study") {
		t.Fatalf("a file with variants: got %v, want an error counting them", err)
	}
}

// TestScenarioFileRejectsStudyFlags: a -scenario file describes the whole
// study, so a study-shaping flag next to it is an error naming that flag;
// output flags still combine with it.
func TestScenarioFileRejectsStudyFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.yaml")
	if err := os.WriteFile(path, []byte("workload:\n  app: escat\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-cache"}, {"-rf", "2"}, {"-mtbf", "3"}, {"-app", "htf"}, {"-small"}} {
		err := run(append([]string{"-scenario", path}, args...), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), args[0]+" cannot be combined with -scenario") {
			t.Errorf("-scenario FILE %v: got %v, want an error naming %s", args, err, args[0])
		}
	}
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-scenario", path, "-json", out, "-shards", "1"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("output flags rejected next to -scenario: %v", err)
	}
}

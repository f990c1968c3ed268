package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScenario(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioDefaultShapeIsBytePrefixOfFlagRun is the DSL's oracle: a
// default-shape scenario file must reproduce the flag-driven report byte for
// byte, with only the scenario sections appended after it.
func TestScenarioDefaultShapeIsBytePrefixOfFlagRun(t *testing.T) {
	path := writeScenario(t, "default.yaml", "name: default-shape\nworkload:\n  app: escat\n")
	flags := capture(t, "-scenario", "none")
	scen := capture(t, "scenario", "run", path)
	if !strings.HasPrefix(scen, flags) {
		t.Fatalf("flag-driven report is not a byte-prefix of the scenario report\nflags:\n%.400s\nscenario:\n%.400s", flags, scen)
	}
	if !strings.Contains(scen[len(flags):], "Assertions (default-shape)") {
		t.Fatalf("scenario suffix missing assertion section:\n%s", scen[len(flags):])
	}
}

func TestScenarioRunDeterministic(t *testing.T) {
	path := writeScenario(t, "chaos.yaml", `
name: outage-regression
seed: 7
workload:
  app: escat
chaos:
  cascades:
    - kind: ionode-outage
      at_s: 4.2
      nodes: 16
      first_node: 0
      duration_s: 1.2
assertions:
  expected: ok
`)
	a := capture(t, "scenario", "run", path)
	b := capture(t, "scenario", "run", path)
	if a != b {
		t.Error("same scenario file not byte-identical across runs")
	}
	for _, want := range []string{"Attempts:", "ionode-outage", "Assertions (outage-regression): PASS"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q:\n%.600s", want, a)
		}
	}
}

func TestScenarioRunMatchesEquivalentFlagRun(t *testing.T) {
	// The scenario's chaos section mirrors the builtin "outage" plan; the
	// flag run must be a byte-prefix of the scenario run.
	path := writeScenario(t, "outage.yaml", `
name: outage
seed: 7
workload:
  app: escat
chaos:
  cascades:
    - kind: ionode-outage
      at_s: 4.2
      nodes: 16
      first_node: 0
      duration_s: 1.2
`)
	flags := capture(t, "-scenario", "outage", "-seed", "7")
	scen := capture(t, "scenario", "run", path)
	if !strings.HasPrefix(scen, flags) {
		t.Fatalf("outage scenario diverged from -scenario outage:\nflags:\n%.400s\nscenario:\n%.400s", flags, scen)
	}
}

func TestScenarioValidateReportsPerFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.yaml")
	bad := filepath.Join(dir, "bad.yaml")
	os.WriteFile(good, []byte("workload:\n  app: escat\n"), 0o644)
	os.WriteFile(bad, []byte("workload:\n  app: doom\n"), 0o644)

	var buf bytes.Buffer
	err := run([]string{"scenario", "validate", dir}, &buf)
	if err == nil {
		t.Fatal("validate accepted an invalid scenario")
	}
	out := buf.String()
	if !strings.Contains(out, "ok   "+good) || !strings.Contains(out, "FAIL "+bad) {
		t.Fatalf("per-file verdicts missing:\n%s", out)
	}
	if !strings.Contains(out, "2 scenarios, 1 invalid") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

func TestScenarioRunFailingAssertionFailsCommand(t *testing.T) {
	path := writeScenario(t, "doomed.yaml", `
name: doomed
workload:
  app: escat
assertions:
  expected: failed
`)
	var buf bytes.Buffer
	err := run([]string{"scenario", "run", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "failed their assertions") {
		t.Fatalf("want assertion failure, got %v", err)
	}
	if !strings.Contains(buf.String(), "VIOLATED") {
		t.Fatalf("violated bound not surfaced:\n%s", buf.String())
	}
}

func TestScenarioSubcommandErrors(t *testing.T) {
	if err := run([]string{"scenario"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bare scenario subcommand accepted")
	}
	if err := run([]string{"scenario", "frobnicate"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown verb accepted")
	}
	if err := run([]string{"scenario", "run", "/does/not/exist.yaml"}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestScenarioHeterogeneousFleetSections(t *testing.T) {
	path := writeScenario(t, "hetero.yaml", `
name: hetero
seed: 11
workload:
  app: escat
fleet_gen:
  io_nodes: 8
  templates:
    - name: fast
      count: 2
      disk_mb_s: 9
    - name: slow
      disk_mb_s: 2
      zone: 1
assertions:
  expected: ok
`)
	out := capture(t, "scenario", "run", path)
	if !strings.Contains(out, "Fleet:") || !strings.Contains(out, "fast") || !strings.Contains(out, "slow") {
		t.Fatalf("fleet section missing:\n%s", out)
	}
	if !strings.Contains(out, "Assertions (hetero): PASS") {
		t.Fatalf("assertions did not pass:\n%s", out)
	}
}

// TestScenarioRunVariants: a file with variants runs its base, then each
// variant under its own header, and ends with one table of their runs; a
// failing variant fails the command and counts as one scenario.
func TestScenarioRunVariants(t *testing.T) {
	path := writeScenario(t, "v.yaml", `
name: v
workload:
  app: escat
features:
  failover:
    enabled: false
assertions:
  expected: ok
variants:
  - name: cached
    features:
      cache:
        enabled: true
  - name: doomed
    assertions:
      max_makespan_s: 0.001
`)
	var buf bytes.Buffer
	err := run([]string{"scenario", "run", path}, &buf)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 scenarios failed") {
		t.Fatalf("got %v, want the doomed variant to fail 1 of 3", err)
	}
	out := buf.String()
	for _, want := range []string{
		"=== v (" + path + ") ===\n", "\n\n=== v/cached (", "Assertions (v/doomed): FAIL",
		"\nVariants (v):\n", "\n  v/cached ", "\n  v/doomed ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, tail(out, 1500))
		}
	}

	buf.Reset()
	if err := run([]string{"scenario", "validate", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "ok   " + path + " (v + 2 variants)\n1 scenarios, 0 invalid\n"; buf.String() != want {
		t.Errorf("validate printed %q, want %q", buf.String(), want)
	}
}

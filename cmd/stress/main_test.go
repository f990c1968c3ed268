package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func capture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSmokeSameSeedByteIdentical(t *testing.T) {
	a := capture(t, "-scenario", "outage", "-seed", "7")
	b := capture(t, "-scenario", "outage", "-seed", "7")
	if a == "" {
		t.Fatal("no output")
	}
	if a != b {
		t.Error("same-seed chaos runs not byte-identical")
	}
	for _, want := range []string{"Attempts:", "Incidents:", "Resilience report:", "ionode-outage"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSmokeRestartWithoutFailover(t *testing.T) {
	out := capture(t, "-scenario", "outage", "-seed", "7", "-failover=false")
	if !strings.Contains(out, "failed:") || !strings.Contains(out, "completed") {
		t.Errorf("expected a failed attempt then a completed one:\n%.600s", out)
	}
	if !strings.Contains(out, "1 failures") {
		t.Errorf("resilience report missing the failure count:\n%.600s", out)
	}
}

func TestSmokeDiskScenarioDegradesArrays(t *testing.T) {
	out := capture(t, "-scenario", "disks", "-seed", "1")
	if !strings.Contains(out, "disk-failure") || !strings.Contains(out, "rebuilt") {
		t.Errorf("disk scenario missing failure/rebuild incidents:\n%.600s", out)
	}
}

func TestSmokeTradeoffSweep(t *testing.T) {
	out := capture(t, "-scenario", "outage", "-seed", "7", "-failover=false", "-sweep", "0,2")
	if !strings.Contains(out, "Checkpoint interval tradeoff") || !strings.Contains(out, "none") {
		t.Errorf("sweep output:\n%.600s", out)
	}
}

func TestSmokeJSONScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	cfg := `{
		"name": "json-chaos",
		"seed": 3,
		"workload": {"app": "escat"},
		"chaos": {
			"events":   [{"kind": "latency-storm", "at_s": 2, "node": -1, "duration_s": 1, "factor": 3}],
			"cascades": [{"kind": "ionode-outage", "at_s": 4.2, "nodes": 2, "first_node": 0, "duration_s": 0.4}]
		}
	}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, "scenario", "run", path)
	if !strings.Contains(out, "latency-storm") || !strings.Contains(out, "ionode-outage") {
		t.Errorf("JSON scenario incidents missing:\n%.600s", out)
	}
}

// TestConfigFlagUndefined checks that the removed chaos-file alias is
// rejected by the flag parser rather than silently ignored.
func TestConfigFlagUndefined(t *testing.T) {
	err := run([]string{"-config", "chaos.json"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -config") {
		t.Fatalf("got %v, want an undefined-flag error for -config", err)
	}
}

// TestReplicateFlagUndefined checks that the removed mirror switch is
// rejected by the flag parser; -rf 1 is the way to turn the mirror off.
func TestReplicateFlagUndefined(t *testing.T) {
	err := run([]string{"-replicate=false"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -replicate") {
		t.Fatalf("got %v, want an undefined-flag error for -replicate", err)
	}
}

// TestFlagErrorsNameTheFlag: flags the scenario would reject, or whose 0
// it would read as a default, fail with an error naming the flag.
func TestFlagErrorsNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "bogus"}, `-app "bogus": want one of escat, render, htf`},
		{[]string{"-failover=false", "-read-policy", "quorum"}, "-read-policy needs -failover"},
		{[]string{"-rf", "1", "-repair"}, "-repair needs replication"},
		{[]string{"-cache", "-cache-mb", "0"}, "-cache-mb 0"},
		{[]string{"-burst", "-burst-mb", "0"}, "-burst-mb 0"},
		{[]string{"-ckpt-bytes", "0"}, "-ckpt-bytes 0"},
		{[]string{"-flush-on-fail"}, "-flush-on-fail needs -cache"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestSmokeBadInputs(t *testing.T) {
	if err := run([]string{"-scenario", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-sweep", "1,x"}, &bytes.Buffer{}); err == nil {
		t.Fatal("malformed sweep accepted")
	}
}

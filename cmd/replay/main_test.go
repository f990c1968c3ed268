package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sddf"
)

// captureTrace writes a small ESCAT trace to an SDDF file for the smoke runs.
func captureTrace(t *testing.T) string {
	t.Helper()
	r, err := core.Run(core.SmallStudy(core.ESCAT))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "escat.sddf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sddf.WriteTrace(f, r.Events, false); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSmokeReplayDeterministic(t *testing.T) {
	trace := captureTrace(t)
	capture := func(args ...string) string {
		var buf bytes.Buffer
		if err := run(append(args, trace), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := capture(), capture()
	if a == "" || a != b {
		t.Error("replay output empty or nondeterministic")
	}
	if !strings.Contains(a, "Replayed operation summary") {
		t.Errorf("output missing summary:\n%.400s", a)
	}

	j1 := capture("-jitter", "0.3", "-seed", "5")
	j2 := capture("-jitter", "0.3", "-seed", "5")
	if j1 != j2 {
		t.Error("same-seed jittered replays differ")
	}
	if j3 := capture("-jitter", "0.3", "-seed", "6"); j3 == j1 {
		t.Error("different seeds gave identical jittered replay")
	}
}

func TestSmokeReplayUsage(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Fatal("missing trace argument accepted")
	}
}

// TestBadFlagsFailBeforeAnyReplay: a -jitter outside [0, 1] (NaN too) or a
// negative -nodes fails naming the flag, with nothing printed, where it
// once panicked, replayed without jitter or blamed the trace.
func TestBadFlagsFailBeforeAnyReplay(t *testing.T) {
	trace := captureTrace(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jitter", "5"}, "-jitter 5: want a fraction in [0, 1]"},
		{[]string{"-sweep", "-jitter", "2"}, "-jitter 2: want a fraction in [0, 1]"},
		{[]string{"-jitter", "-1"}, "-jitter -1: want a fraction in [0, 1]"},
		{[]string{"-jitter", "NaN"}, "-jitter NaN: want a fraction in [0, 1]"},
		{[]string{"-nodes", "-2"}, "-nodes -2: want >= 0"},
	} {
		var buf bytes.Buffer
		err := run(append(tc.args, trace), &buf)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: printed output before failing:\n%.400s", tc.args, buf.String())
		}
	}
}

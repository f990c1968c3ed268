package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSmokeSmallRunDeterministic(t *testing.T) {
	capture := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-app", "escat", "-small"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := capture(), capture()
	if a == "" {
		t.Fatal("no output")
	}
	if a != b {
		t.Error("two identical runs produced different output")
	}
	for _, want := range []string{"escat: wall clock", "I/O operations", "File lifetime summary"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSmokeChaosRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-app", "escat", "-small", "-mtbf", "3", "-outage", "0.5", "-seed", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Resilience report:") {
		t.Errorf("chaos run printed no resilience report:\n%.400s", buf.String())
	}
}

func TestSmokeBadPolicy(t *testing.T) {
	if err := run([]string{"-small", "-policy", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestIoshardsFlagUndefined checks that the retired intra-machine split flag is
// rejected by the flag parser rather than silently ignored.
func TestIoshardsFlagUndefined(t *testing.T) {
	err := run([]string{"-app", "escat", "-small", "-ioshards", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -ioshards") {
		t.Fatalf("got %v, want an undefined-flag error for -ioshards", err)
	}
}

// TestFlagErrorsNameTheFlag: flags the scenario would reject, or whose 0 it
// would read as a default, fail with an error naming the flag instead of
// running a different study than the one asked for.
func TestFlagErrorsNameTheFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "bogus", "-small"}, `-app "bogus": want one of escat, render, htf`},
		{[]string{"-small", "-read-policy", "quorum"}, "-read-policy needs failover"},
		{[]string{"-small", "-repair"}, "-repair needs failover"},
		{[]string{"-small", "-mtbf", "3", "-rf", "1", "-repair"}, "-repair needs replication: -rf >= 2"},
		{[]string{"-small", "-cache", "-cache-mb", "0"}, "-cache-mb 0"},
		{[]string{"-small", "-burst", "-burst-mb", "0"}, "-burst-mb 0"},
		{[]string{"-small", "-aggregators", "2"}, "-aggregators needs -collective"},
		{[]string{"-small", "-rf", "9"}, "-rf 9: want 1..4"},
		{[]string{"-small", "-burst", "-policy", "ppfs"}, `-burst and -policy "ppfs"`},
		{[]string{"-small", "-mtbf", "10", "-outage", "-1"}, "-outage -1: want >= 0"},
		{[]string{"-small", "-burst", "-compress", "-2"}, "-compress -2: want >= 0"},
		{[]string{"-small", "-cache-mb", "4"}, "-cache-mb needs -cache"},
		{[]string{"-small", "-prefetch=false"}, "-prefetch needs -cache"},
		{[]string{"-small", "-burst-mb", "32"}, "-burst-mb needs -burst"},
		{[]string{"-small", "-burst-drain", "5"}, "-burst-drain needs -burst"},
		{[]string{"-small", "-compress", "2"}, "-compress needs -burst"},
		{[]string{"-small", "-repair-mb-s", "5"}, "-repair-mb-s needs -repair"},
		{[]string{"-small", "-repair-give-up", "3"}, "-repair-give-up needs -repair"},
		{[]string{"-small", "-window", "1e-7"}, "-window 1e-07 is below the clock's 1 µs resolution"},
		{[]string{"-small", "-scrub", "-chaos-window", "1e-7"}, "-chaos-window 1e-07 is below the clock's 1 µs resolution"},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
			continue
		}
		for _, section := range []string{"workload.", "features.", "chaos.", "run."} {
			if strings.Contains(err.Error(), section) {
				t.Errorf("%v: error %q names a scenario field, not a flag", tc.args, err)
			}
		}
	}
}

// capture runs the CLI with args and returns its full output.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sections returns the first line of every report section (lines ending in
// a colon plus the table headers), the schema the cache flag must not alter.
func sections(out string) []string {
	var heads []string
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasSuffix(trimmed, ":") && !strings.Contains(trimmed, " -> ") {
			heads = append(heads, trimmed)
		}
	}
	return heads
}

func TestSmokeCacheFlagAddsStatsKeepsSchema(t *testing.T) {
	off := capture(t, "-app", "escat", "-small")
	on := capture(t, "-app", "escat", "-small", "-cache")

	if strings.Contains(off, "Cache effectiveness:") {
		t.Error("uncached run printed a cache report")
	}
	if !strings.Contains(on, "Cache effectiveness:") {
		t.Error("cached run printed no cache report")
	}
	// Apart from the added cache section, the report schema is identical.
	offHeads := sections(off)
	var onHeads []string
	for _, h := range sections(on) {
		if h == "Cache effectiveness:" || h == "per node:" {
			continue
		}
		onHeads = append(onHeads, h)
	}
	if strings.Join(offHeads, "\n") != strings.Join(onHeads, "\n") {
		t.Errorf("cache flag changed the report sections:\noff: %v\non:  %v", offHeads, onHeads)
	}
}

func TestSmokeCachedRunsByteIdentical(t *testing.T) {
	args := []string{"-app", "htf", "-small", "-cache", "-cache-mb", "4"}
	a := capture(t, args...)
	b := capture(t, args...)
	if a == "" {
		t.Fatal("no output")
	}
	if a != b {
		t.Error("two identical cached runs produced different output")
	}
}

func TestSmokeCacheNoPrefetch(t *testing.T) {
	out := capture(t, "-app", "escat", "-small", "-cache", "-prefetch=false")
	if !strings.Contains(out, "Cache effectiveness:") {
		t.Fatal("no cache report")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "prefetch") && strings.Contains(line, "issued") {
			if !strings.Contains(line, "0 issued") {
				t.Errorf("prefetch disabled but line says %q", strings.TrimSpace(line))
			}
		}
	}
}

func TestSmokeFiguresWritesCSVAndTextPerFigure(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-app", "htf", "-small", "-figures", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "figures: 9 -> "+dir) {
		t.Fatalf("figure count line missing:\n%s", buf.String())
	}
	for _, ext := range []string{".csv", ".txt", ".svg"} {
		files, err := filepath.Glob(filepath.Join(dir, "figure-*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 9 {
			t.Fatalf("%d %s files, want 9: %v", len(files), ext, files)
		}
		for _, f := range files {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Fatalf("%s empty or missing: %v", f, err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 27 {
		t.Fatalf("%d files in the figure directory, want 27", len(entries))
	}
	// The ASCII plots carry the same axis labels as paperrepro's.
	txt, err := os.ReadFile(filepath.Join(dir, "figure-09.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "vs time)") {
		t.Errorf("figure-09.txt has no axis label:\n%s", txt)
	}
}

// TestBadFiguresDirFailsBeforeTheRun: a -figures path that cannot be a
// directory, or a -json, -trace or -summaries file that cannot be created,
// fails before the study runs, so nothing is printed.
func TestBadFiguresDirFailsBeforeTheRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "nonexistent", "x")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-small", "-figures", file}, "not a directory"},
		{[]string{"-small", "-json", missing + ".json"}, "no such file or directory"},
		{[]string{"-small", "-trace", missing + ".sddf"}, "no such file or directory"},
		{[]string{"-small", "-summaries", missing + ".sddf"}, "no such file or directory"},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: printed output before failing:\n%.400s", tc.args, buf.String())
		}
	}
}

// TestJSONWriteErrorFailsTheRun: a -json file that cannot be written fails
// the command with the write error.
func TestJSONWriteErrorFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	err := run([]string{"-app", "escat", "-small", "-json", "/dev/full"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no space left on device") {
		t.Fatalf("got %v, want the write error", err)
	}
}

// Package cmd_test locks the byte-exact stdout of the command-line tools: the
// paper reproduction tables, one iochar study, the rendered report of every
// scenario in the corpus, and an SDDF trace with its replay. Any behavioural change in the simulator shows
// up here as a digest mismatch, so refactors that claim identical output can
// prove it.
package cmd_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cli_output.golden from the current code")

const cliGolden = "testdata/cli_output.golden"

// buildCLIs compiles the commands under test into a temporary directory.
func buildCLIs(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./"+n)
	}
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// readInputs reads what the commands' output depends on: every non-test Go
// file of the module and the scenario corpus. The CLIs are built and run in
// subprocesses the test cache cannot see, but it keys on the files and
// directories the test itself reads, so an edit to any of these reruns the
// test instead of reporting a cached ok.
func readInputs(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == ".." {
				return nil
			}
			if strings.HasPrefix(name, ".") || name == "testdata" || name == "out" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		source := strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if source || name == "go.mod" || filepath.Base(filepath.Dir(path)) == "scenarios" {
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// cliOutputDigests runs every locked command line and returns one
// "name sha256" line per stdout.
func cliOutputDigests(t *testing.T) string {
	t.Helper()
	readInputs(t)
	bin := buildCLIs(t, "paperrepro", "iochar", "stress", "replay")
	var b strings.Builder
	digest := func(name string, data []byte) {
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(sum[:]))
	}
	run := func(argv ...string) []byte {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, argv[0]), argv[1:]...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(argv, " "), err, stderr.String())
		}
		return stdout.Bytes()
	}
	line := func(name string, argv ...string) { digest(name, run(argv...)) }
	line("paperrepro -no-figures", "paperrepro", "-no-figures")
	line("iochar -app escat -small -seed 7", "iochar", "-app", "escat", "-small", "-seed", "7")
	// Flag-driven runs: every feature flag group of both commands, so a
	// change in how flags become a study shows up as a digest mismatch.
	for _, argv := range [][]string{
		{"stress", "-scenario", "outage", "-seed", "7"},
		{"stress", "-scenario", "outage", "-seed", "7", "-rf", "1"},
		{"stress", "-scenario", "disks", "-seed", "7"},
		{"stress", "-scenario", "storm", "-seed", "7"},
		{"stress", "-scenario", "mixed", "-seed", "7"},
		{"stress", "-scenario", "outage", "-failover=false", "-sweep", "0,2"},
		{"stress", "-scenario", "outage", "-corrupt", "all", "-scrub", "-deadline", "0.5", "-retries", "4", "-seed", "11"},
		{"stress", "-scenario", "none", "-burst", "-burst-mb", "32", "-compress", "2.0"},
		{"stress", "-scenario", "none", "-collective", "-scrub"},
		{"iochar", "-app", "escat", "-small", "-corrupt", "all", "-scrub", "-seed", "11"},
		{"iochar", "-app", "render", "-small", "-burst"},
		{"iochar", "-app", "htf", "-small", "-cache", "-prefetch=false"},
		{"iochar", "-app", "escat", "-small", "-collective", "-sched", "cscan", "-policy", "ppfs"},
		{"iochar", "-app", "escat", "-small", "-mtbf", "3", "-rf", "3", "-repair", "-repair-mb-s", "0", "-seed", "5"},
	} {
		line(strings.Join(argv, " "), argv...)
	}
	// The SDDF trace bytes, binary and ASCII, and a replay of the binary
	// trace: F stands for the trace file, which lives in a temporary
	// directory.
	trace := filepath.Join(t.TempDir(), "render.sddf")
	run("iochar", "-app", "render", "-small", "-trace", trace)
	traceBytes, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	digest("iochar -app render -small -trace F: F", traceBytes)
	line("replay -ionodes 8 F", "replay", "-ionodes", "8", trace)
	asciiTrace := filepath.Join(t.TempDir(), "render.ascii.sddf")
	run("iochar", "-app", "render", "-small", "-trace", asciiTrace, "-trace-ascii")
	asciiBytes, err := os.ReadFile(asciiTrace)
	if err != nil {
		t.Fatal(err)
	}
	digest("iochar -app render -small -trace F -trace-ascii: F", asciiBytes)
	corpus, err := filepath.Glob(filepath.Join("..", "scenarios", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty scenario corpus")
	}
	// Fleet reports name their worker count, which defaults to GOMAXPROCS;
	// -shards pins it so the digests do not depend on the host.
	for _, path := range corpus {
		line("stress scenario run -shards 2 "+filepath.Base(path), "stress", "scenario", "run", "-shards", "2", path)
	}
	return b.String()
}

// TestCLIOutputDigests locks the bytes every command above prints. Regenerate
// with
//
//	go test ./cmd -run TestCLIOutputDigests -update
//
// and only when an output change is intended and explained.
func TestCLIOutputDigests(t *testing.T) {
	got := cliOutputDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(cliGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cliGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cliGolden)
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
			t.Errorf("output %d differs:\n want %s\n  got %s", i, wantLines[i], gotLines[i])
		}
	}
}

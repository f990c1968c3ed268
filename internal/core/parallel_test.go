package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps/htf"
	"repro/internal/exec"
	"repro/internal/integrity"
)

// renderAllSweeps runs every executor-backed sweep and renders each report
// into one "section sha256" line, so a byte comparison covers rows, ordering,
// and formatting at once and a changed line names the sweep that moved.
func renderAllSweeps(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(name, text string) {
		sum := sha256.Sum256([]byte(text))
		fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(sum[:]))
	}

	corrRows, err := CorruptionSweep(11)
	if err != nil {
		t.Fatalf("CorruptionSweep: %v", err)
	}
	section("corruption", RenderCorruptionSweep(corrRows))

	integRows, err := ModeIntegritySweep(integrity.DefaultConfig())
	if err != nil {
		t.Fatalf("ModeIntegritySweep: %v", err)
	}
	section("integrity", RenderIntegrityOverhead(integRows))

	scalePts, err := ESCATScaling([]int{4, 8}, 4)
	if err != nil {
		t.Fatalf("ESCATScaling: %v", err)
	}
	section("scaling", RenderScaling(scalePts))

	section("crossover", htf.RenderSweep(htf.DefaultCrossoverModel().Sweep([]float64{1e6, 3e6, 5.6e6, 10e6})))

	tradePts, err := TradeoffSweep(chaosStudy(), []int{0, 2})
	if err != nil {
		t.Fatalf("TradeoffSweep: %v", err)
	}
	section("tradeoff", analysis.RenderTradeoff(tradePts))

	return b.String()
}

const sweepsGolden = "testdata/sweeps.golden"

// Every sweep must render byte-identically at any worker count: results are
// delivered by submission index and each run builds all of its own state, so
// -parallel only changes wall-clock time, never output. This is the
// executor's core guarantee; run the suite with -race to also prove the
// concurrent runs share no mutable state. Each sweep's rendered bytes are
// also locked by a SHA-256 line in testdata/sweeps.golden; regenerate with
//
//	go test ./internal/core -run TestSweepsByteIdenticalAcrossWorkerCounts -update
//
// and only when an output change is intended and explained.
func TestSweepsByteIdenticalAcrossWorkerCounts(t *testing.T) {
	defer exec.SetWorkers(0)

	exec.SetWorkers(1)
	sequential := renderAllSweeps(t)
	exec.SetWorkers(8)
	parallel := renderAllSweeps(t)

	if sequential != parallel {
		t.Fatalf("sweep output differs between -parallel=1 and -parallel=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	if len(sequential) == 0 {
		t.Fatal("sweeps rendered nothing")
	}

	if *update {
		if err := os.WriteFile(sweepsGolden, []byte(sequential), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if sequential != string(want) {
		t.Fatalf("sweep digests differ from %s:\n--- want ---\n%s--- got ---\n%s", sweepsGolden, want, sequential)
	}
}

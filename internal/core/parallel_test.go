package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps/htf"
	"repro/internal/cache"
	"repro/internal/exec"
	"repro/internal/integrity"
)

// renderAllSweeps runs every executor-backed sweep and renders the reports
// into one text blob, so a byte comparison covers rows, ordering, and
// formatting at once.
func renderAllSweeps(t *testing.T) string {
	t.Helper()
	var out string

	cacheRows, err := CacheSweep(true, cache.DefaultConfig())
	if err != nil {
		t.Fatalf("CacheSweep: %v", err)
	}
	out += analysis.RenderCacheSweep("Cache sweep:", cacheRows)

	modeRows, err := ModeCacheSweep(cache.DefaultConfig())
	if err != nil {
		t.Fatalf("ModeCacheSweep: %v", err)
	}
	out += analysis.RenderCacheSweep("Mode cache sweep:", modeRows)

	out += renderCollectiveSweeps(t)
	burstOut, _ := renderBurstSweep(t)
	out += burstOut

	corrRows, err := CorruptionSweep(true, 11)
	if err != nil {
		t.Fatalf("CorruptionSweep: %v", err)
	}
	out += RenderCorruptionSweep(corrRows)

	integRows, err := ModeIntegritySweep(integrity.DefaultConfig())
	if err != nil {
		t.Fatalf("ModeIntegritySweep: %v", err)
	}
	out += RenderIntegrityOverhead(integRows)

	scalePts, err := ESCATScaling([]int{4, 8}, 4)
	if err != nil {
		t.Fatalf("ESCATScaling: %v", err)
	}
	out += RenderScaling(scalePts)

	out += htf.RenderSweep(htf.DefaultCrossoverModel().Sweep([]float64{1e6, 3e6, 5.6e6, 10e6}))

	tradePts, err := TradeoffSweep(chaosStudy(), []int{0, 2})
	if err != nil {
		t.Fatalf("TradeoffSweep: %v", err)
	}
	out += analysis.RenderTradeoff(tradePts)

	return out
}

const sweepsGolden = "testdata/sweeps.golden"

// Every sweep must render byte-identically at any worker count: results are
// delivered by submission index and each run builds all of its own state, so
// -parallel only changes wall-clock time, never output. This is the
// executor's core guarantee; run the suite with -race to also prove the
// concurrent runs share no mutable state. The rendered bytes are also locked
// by a SHA-256 in testdata/sweeps.golden; regenerate with
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

	sum := sha256.Sum256([]byte(sequential))
	got := hex.EncodeToString(sum[:]) + "\n"
	if *update {
		if err := os.WriteFile(sweepsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("sweep output digest %s differs from %s (%s):\n%s", got, sweepsGolden, want, sequential)
	}
}

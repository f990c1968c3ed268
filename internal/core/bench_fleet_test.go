package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fleetShardCounts is the scaling-curve sweep: powers of two from the serial
// oracle up to 8 shards.
func fleetShardCounts() []int { return []int{1, 2, 4, 8} }

// benchFleet runs one fleet configuration per iteration. Results are
// byte-identical across shard counts (the determinism oracle holds them to
// it), so the sub-benchmarks differ only in wall-clock — the scaling curve
// BENCH_9.json records.
func benchFleet(b *testing.B, s Study, cells, shards int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, err := RunFleet(s, FleetOptions{
			Cells:   cells,
			Stagger: 10 * sim.Millisecond,
			Shards:  shards,
			Seed:    3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fr.Cells) != cells {
			b.Fatalf("fleet produced %d cell reports, want %d", len(fr.Cells), cells)
		}
	}
}

// BenchmarkFleetSmall8 sweeps the shard count over an 8-cell fleet of small
// ESCAT studies — the quick scaling curve the bench-smoke CI step runs.
func BenchmarkFleetSmall8(b *testing.B) {
	s := SmallStudy(ESCAT)
	s.KeepTrace = false
	for _, shards := range fleetShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchFleet(b, s, 8, shards)
		})
	}
}

// BenchmarkFleetPaperScale sweeps the shard count over a 4-cell fleet of
// full paper-scale ESCAT runs — the acceptance criterion's "paper-scale
// speedup" measurement.
func BenchmarkFleetPaperScale(b *testing.B) {
	s := PaperStudy(ESCAT)
	s.KeepTrace = false
	for _, shards := range fleetShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchFleet(b, s, 4, shards)
		})
	}
}

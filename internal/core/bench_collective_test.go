package core

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/ionode"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/workload"
)

// benchCollectiveMode runs the phase-aligned synthetic workload under one
// access mode and PFS configuration per iteration, reporting the simulated
// wall clock and the physical array request count alongside the harness
// timing — the quantities BENCH_5.json compares across Base / AggFCFS /
// AggCSCAN.
func benchCollectiveMode(b *testing.B, mode iotrace.AccessMode, pcfg pfs.Config) {
	b.ReportAllocs()
	var last *Report
	for i := 0; i < b.N; i++ {
		r, err := Run(syntheticStudy(workload.SyntheticConfig{
			Nodes:       8,
			Mode:        mode,
			RecordBytes: 4096,
			Records:     32,
			Barrier:     true,
		}, pcfg))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Wall.Seconds(), "sim-wall-s")
	b.ReportMetric(float64(last.PhysRequests), "phys-requests")
	if last.Collective != nil {
		b.ReportMetric(last.Collective.Reduction(), "req-reduction")
	}
}

func baseCfg() pfs.Config { return pfs.DefaultConfig() }

func aggCfg(policy string) pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.Collective = collective.Config{Enabled: true}
	if policy != "" {
		cfg.Sched = ionode.SchedConfig{Policy: policy, Seed: 5}
	}
	return cfg
}

// The paper's M_RECORD discipline (§4, ESCAT's reload pattern): eight nodes,
// 32 records of 4 KB each, phase-aligned. The aggregated variants collapse
// each round's eight records into one stripe run.
func BenchmarkCollectiveRecordBase(b *testing.B) {
	benchCollectiveMode(b, iotrace.ModeRecord, baseCfg())
}

func BenchmarkCollectiveRecordAggFCFS(b *testing.B) {
	benchCollectiveMode(b, iotrace.ModeRecord, aggCfg(""))
}

func BenchmarkCollectiveRecordAggCSCAN(b *testing.B) {
	benchCollectiveMode(b, iotrace.ModeRecord, aggCfg("cscan"))
}

// The M_SYNC discipline: same record stream, offsets assigned in node order
// by the shared pointer. Collectively the round barrier replaces the
// sequencer's one-at-a-time turn taking.
func BenchmarkCollectiveSyncBase(b *testing.B) {
	benchCollectiveMode(b, iotrace.ModeSync, baseCfg())
}

func BenchmarkCollectiveSyncAggFCFS(b *testing.B) {
	benchCollectiveMode(b, iotrace.ModeSync, aggCfg(""))
}

func BenchmarkCollectiveSyncAggCSCAN(b *testing.B) {
	benchCollectiveMode(b, iotrace.ModeSync, aggCfg("cscan"))
}

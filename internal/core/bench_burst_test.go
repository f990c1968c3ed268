package core

import (
	"testing"

	"repro/internal/burst"
	"repro/internal/ckpt"
)

// benchBurstApp runs one application at paper scale under the burst-sweep
// checkpoint policy, direct to the PFS or through the tier, and reports the
// simulated makespan and checkpoint stall — the quantities BENCH_6.json
// compares per app. RENDER has no work-unit loop to checkpoint; its frame
// outputs route through the log by prefix, so its pair isolates the tier's
// effect on ordinary output writes.
func benchBurstApp(b *testing.B, app AppID, useBurst bool) {
	b.ReportAllocs()
	var last *ResilientReport
	for i := 0; i < b.N; i++ {
		study := PaperStudy(app)
		if useBurst {
			study.Burst = burst.DefaultConfig()
			if app == RENDER {
				study.Burst.Prefixes = []string{"frame"}
			}
		}
		rs := ResilientStudy{
			Study:       study,
			Ckpt:        ckpt.Config{Interval: 1, BytesPerNode: 1 << 20},
			MaxAttempts: 1,
		}
		if app == RENDER {
			rs.Ckpt.Interval = 0
		}
		rr, err := RunResilient(rs)
		if err != nil {
			b.Fatal(err)
		}
		last = rr
	}
	b.ReportMetric(last.Wall.Seconds(), "sim-wall-s")
	b.ReportMetric(last.Ckpt.Overhead.Seconds(), "ckpt-stall-s")
	if last.Final != nil && last.Final.Burst != nil {
		st := last.Final.Burst.Stats
		b.ReportMetric(st.AbsorbRatio(), "absorb")
		b.ReportMetric(float64(st.CompressSavedBytes()), "saved-bytes")
		b.ReportMetric(last.Final.Burst.StallTime().Seconds(), "burst-stall-s")
	}
}

// ESCAT checkpoints every SCF sweep: the densest bursty write traffic in the
// suite and the paper's headline stall case.
func BenchmarkBurstEscatDirect(b *testing.B) { benchBurstApp(b, ESCAT, false) }
func BenchmarkBurstEscatTier(b *testing.B)   { benchBurstApp(b, ESCAT, true) }

// HTF checkpoints each SCF pass; its integral files add ordinary write
// traffic alongside the checkpoint bursts.
func BenchmarkBurstHtfDirect(b *testing.B) { benchBurstApp(b, HTF, false) }
func BenchmarkBurstHtfTier(b *testing.B)   { benchBurstApp(b, HTF, true) }

// RENDER's frame outputs go through the log by name prefix — the
// no-checkpoint control pair.
func BenchmarkBurstRenderDirect(b *testing.B) { benchBurstApp(b, RENDER, false) }
func BenchmarkBurstRenderTier(b *testing.B)   { benchBurstApp(b, RENDER, true) }

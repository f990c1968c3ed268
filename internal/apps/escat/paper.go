package escat

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Name is the application's short name.
const Name = "escat"

// Paper is ESCAT's share of the paper (§5): Tables 1-2, Figures 2-5 and
// Figure 4's burst spacing.
var Paper = workload.Paper{
	Name:    Name,
	Config:  func() workload.AppConfig { return DefaultConfig() },
	Small:   func() workload.AppConfig { return SmallConfig() },
	Machine: MachineConfig,
	Figures: []workload.FigureSpec{
		{ID: "figure-02", Title: "Read operation timeline (ESCAT)", Timeline: workload.ReadTimeline},
		{ID: "figure-03", Title: "Read operation detail (ESCAT)", Phase: PhaseInit, Timeline: workload.ReadTimeline},
		{ID: "figure-04", Title: "Write operation timeline (ESCAT)", Timeline: workload.WriteTimeline},
		{ID: "figure-05", Title: "File access timeline (ESCAT)", Timeline: workload.FileTimeline},
	},
	Tables: []workload.TableSpec{{
		Compare: "ESCAT",
		Summary: "Table 1: Number, size, and duration of I/O operations (ESCAT)",
		Sizes:   "Table 2: Read/write sizes (ESCAT)",
		// Reads reread what the run wrote, so the read volume stays near the
		// write volume plus initialization, below the paper's 34.2 MB (see
		// EXPERIMENTS.md on that inconsistency). Seek and write together hold
		// at least 85% of the node time.
		Rows: []workload.PaperRow{
			{Op: "All I/O", Count: 26418, Volume: 60983136, Seconds: 38788.95, Pct: 100},
			{Op: "Read", Count: 560, Volume: 34226048, Seconds: 81.19, Pct: 0.21,
				VolumeBand: workload.Band{26e6, 35e6}, Share: workload.Band{0, 2}},
			{Op: "Write", Count: 13330, Volume: 26757088, Seconds: 16268.50, Pct: 41.94,
				VolumeBand: workload.Band{25e6, 28.5e6}, Share: workload.Band{40, 50}},
			{Op: "Seek", Count: 12034, Volume: -1, Seconds: 20884.11, Pct: 53.84,
				Share: workload.Band{45, 60}, Exceeds: "Write"},
			{Op: "Open", Count: 262, Volume: -1, Seconds: 1179.06, Pct: 3.04,
				Share: workload.Band{0, 10}},
			{Op: "Close", Count: 262, Volume: -1, Seconds: 376.06, Pct: 0.97},
		},
		Read: [4]int64{297, 3, 260, 0}, Write: [4]int64{13330, 0, 0, 0},
		// "roughly one and three quarter hours"
		Wall: 6300, WallBand: workload.Band{4500, 8000},
	}},
	Headline: func(events func(iotrace.Phase) []iotrace.Event) string {
		early, late, bursts := WriteBurstTrend(events(PhaseQuadrature), 30*sim.Second)
		return fmt.Sprintf("Figure 4 burst structure: %d bursts, spacing %.0f s early -> %.0f s late (paper: ~160 -> ~80)",
			bursts, early.Seconds(), late.Seconds())
	},
}

// WriteBurstTrend returns the spacing between synchronized write bursts at
// the start and end of the quadrature phase, given that phase's events
// (Figure 4's "roughly 160 seconds ... to half that"). gap is the idle time
// that separates bursts; pass a value below the inter-cycle compute time
// (30 s suits the paper-scale run).
func WriteBurstTrend(quadrature []iotrace.Event, gap sim.Time) (early, late sim.Time, bursts int) {
	bs := analysis.Bursts(analysis.WriteTimeline(quadrature), gap)
	sp := analysis.BurstSpacings(bs)
	if len(sp) == 0 {
		return 0, 0, len(bs)
	}
	return sp[0], sp[len(sp)-1], len(bs)
}

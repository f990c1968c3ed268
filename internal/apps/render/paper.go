package render

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Name is the application's short name.
const Name = "render"

// Paper is RENDER's share of the paper (§6): Tables 3-4, Figures 6-8 and
// §6.2's initialization read throughput.
var Paper = workload.Paper{
	Name:    Name,
	Config:  func() workload.AppConfig { return DefaultConfig() },
	Small:   func() workload.AppConfig { return SmallConfig() },
	Machine: MachineConfig,
	Figures: []workload.FigureSpec{
		{ID: "figure-06", Title: "Read operation timeline (RENDER)", Timeline: workload.ReadTimeline},
		{ID: "figure-07", Title: "Write operation timeline (RENDER)", Timeline: workload.WriteTimeline},
		{ID: "figure-08", Title: "File access timeline (RENDER)", Timeline: workload.FileTimeline},
	},
	Tables: []workload.TableSpec{{
		Compare: "RENDER",
		Summary: "Table 3: Number, size, and duration of I/O operations (RENDER)",
		Sizes:   "Table 4: The sizes of reads and writes in RENDER",
		Rows: []workload.PaperRow{
			{Op: "All I/O", Count: 1504, Volume: 979162982, Seconds: 164.75, Pct: 100},
			{Op: "Read", Count: 121, Volume: 8457, Seconds: 0.17, Pct: 0.10,
				VolumeBand: workload.Band{8000, 9000}, Share: workload.Band{0, 1}},
			{Op: "AsynchRead", Count: 436, Volume: 880849125, Seconds: 4.60, Pct: 2.79,
				VolumeBand: workload.Band{870e6, 890e6}, Share: workload.Band{0, 8}},
			{Op: "I/O Wait", Count: 436, Volume: -1, Seconds: 88.44, Pct: 53.68,
				Share: workload.Band{40, 65}},
			{Op: "Write", Count: 300, Volume: 98305400, Seconds: 31.76, Pct: 19.28,
				ExactVolume: true, Share: workload.Band{10, 30}},
			{Op: "Seek", Count: 4, Volume: 0, Seconds: 0.13, Pct: 0.08, ExactVolume: true},
			{Op: "Open", Count: 106, Volume: -1, Seconds: 32.78, Pct: 19.90,
				Share: workload.Band{10, 30}},
			{Op: "Close", Count: 101, Volume: -1, Seconds: 6.87, Pct: 4.17},
		},
		Read: [4]int64{121, 0, 0, 436}, Write: [4]int64{200, 0, 0, 100},
		// initialization plus 100 frames
		Wall: 470, WallBand: workload.Band{380, 600},
	}},
	Headline: func(events func(iotrace.Phase) []iotrace.Event) string {
		return fmt.Sprintf("§6.2 initialization read throughput: %.1f MB/s (paper: ~9.5)",
			InitReadThroughput(events(PhaseInit))/1e6)
	},
}

// InitReadThroughput returns the sustained read rate of the initialization
// phase in bytes/second, given that phase's events (§6.2 quotes ~9.5 MB/s);
// 0 when the events hold no asynchronous read.
func InitReadThroughput(init []iotrace.Event) float64 {
	reads := analysis.OpTimeline(init, iotrace.OpAsyncRead)
	if reads.Len() == 0 {
		return 0
	}
	var last sim.Time
	for _, e := range init {
		if (e.Op == iotrace.OpIOWait || e.Op == iotrace.OpAsyncRead) && e.End > last {
			last = e.End
		}
	}
	return analysis.Throughput(reads, last-reads.At(0).T)
}

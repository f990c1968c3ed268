package htf

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/workload"
)

// Name is the application's short name.
const Name = "htf"

// Paper is HTF's share of the paper (§7): Tables 5-6 and Figures 9-17, one
// of each per program, and §7.2's recompute-versus-reread break-even.
var Paper = workload.Paper{
	Name:    Name,
	Config:  func() workload.AppConfig { return DefaultConfig() },
	Small:   func() workload.AppConfig { return SmallConfig() },
	Machine: MachineConfig,
	Figures: []workload.FigureSpec{
		{ID: "figure-09", Title: "Read operation timeline (HTF psetup)", Phase: PhasePsetup, Timeline: workload.ReadTimeline},
		{ID: "figure-10", Title: "Write operation timeline (HTF psetup)", Phase: PhasePsetup, Timeline: workload.WriteTimeline},
		{ID: "figure-11", Title: "Read operation timeline (HTF pargos)", Phase: PhasePargos, Timeline: workload.ReadTimeline},
		{ID: "figure-12", Title: "Write operation timeline (HTF pargos)", Phase: PhasePargos, Timeline: workload.WriteTimeline},
		{ID: "figure-13", Title: "Read operation timeline (HTF pscf)", Phase: PhasePscf, Timeline: workload.ReadTimeline},
		{ID: "figure-14", Title: "Write operation timeline (HTF pscf)", Phase: PhasePscf, Timeline: workload.WriteTimeline},
		{ID: "figure-15", Title: "File access timeline (HTF psetup)", Phase: PhasePsetup, Timeline: workload.FileTimeline},
		{ID: "figure-16", Title: "File access timeline (HTF pargos)", Phase: PhasePargos, Timeline: workload.FileTimeline},
		{ID: "figure-17", Title: "File access timeline (HTF pscf)", Phase: PhasePscf, Timeline: workload.FileTimeline},
	},
	// Each program's wall clock is estimated: the split between compute and
	// I/O within a program is not published.
	Tables: []workload.TableSpec{{
		Phase: PhasePsetup, Compare: "HTF initialization",
		Summary: "Table 5: I/O operations (HTF psetup)",
		Sizes:   "Table 6: Read/write sizes (HTF psetup)",
		Rows: []workload.PaperRow{
			{Op: "All I/O", Count: 832, Volume: 7267422, Seconds: 55.23, Pct: 100},
			{Op: "Read", Count: 371, Volume: 3522497, Seconds: 15.34, Pct: 27.77,
				VolumeBand: workload.Band{3.3e6, 3.7e6}, Exceeds: "Write"},
			{Op: "Write", Count: 452, Volume: 3744872, Seconds: 5.50, Pct: 9.96,
				VolumeBand: workload.Band{3.5e6, 4e6}},
			{Op: "Seek", Count: 2, Volume: 53, Seconds: 0.43, Pct: 0.78, ExactVolume: true},
			{Op: "Open", Count: 4, Volume: -1, Seconds: 31.49, Pct: 57.02,
				Share: workload.Band{35, 100}},
			{Op: "Close", Count: 3, Volume: -1, Seconds: 2.47, Pct: 4.47},
		},
		Read: [4]int64{151, 220, 0, 0}, Write: [4]int64{218, 234, 0, 0},
		Wall: 127, WallBand: workload.Band{80, 200},
	}, {
		Phase: PhasePargos, Compare: "HTF integral calculation",
		Summary: "Table 5: I/O operations (HTF pargos)",
		Sizes:   "Table 6: Read/write sizes (HTF pargos)",
		Rows: []workload.PaperRow{
			{Op: "All I/O", Count: 17854, Volume: 698992502, Seconds: 6398.03, Pct: 100},
			{Op: "Read", Count: 145, Volume: 34393, Seconds: 0.47, Pct: 0.00},
			{Op: "Write", Count: 8535, Volume: 698958109, Seconds: 1996.4, Pct: 31.20,
				VolumeBand: workload.Band{695e6, 702e6}, Share: workload.Band{18, 45}},
			{Op: "Seek", Count: 130, Volume: 0, Seconds: 0.14, Pct: 0.00, ExactVolume: true},
			{Op: "Open", Count: 130, Volume: -1, Seconds: 4056.60, Pct: 63.40,
				Share: workload.Band{45, 80}},
			{Op: "Close", Count: 129, Volume: -1, Seconds: 11.43, Pct: 0.18},
			{Op: "Lsize", Count: 128, Volume: -1, Seconds: 15.27, Pct: 0.24},
			{Op: "Forflush", Count: 8657, Volume: -1, Seconds: 317.72, Pct: 4.98},
		},
		Read: [4]int64{143, 2, 0, 0}, Write: [4]int64{2, 1, 8532, 0},
		Wall: 1173, WallBand: workload.Band{900, 1500},
	}, {
		Phase: PhasePscf, Compare: "HTF self-consistent field",
		Summary: "Table 5: I/O operations (HTF pscf)",
		Sizes:   "Table 6: Read/write sizes (HTF pscf)",
		// The seek volume is the distance: five rewinds of about 700 MB.
		Rows: []workload.PaperRow{
			{Op: "All I/O", Count: 52832, Volume: 4205483650, Seconds: 32800.99, Pct: 100},
			{Op: "Read", Count: 51499, Volume: 4201634304, Seconds: 32263.20, Pct: 98.36,
				VolumeBand: workload.Band{4.15e9, 4.25e9}, Share: workload.Band{90, 100}},
			{Op: "Write", Count: 207, Volume: 3849268, Seconds: 5.88, Pct: 0.02},
			{Op: "Seek", Count: 813, Volume: 3495198798, Seconds: 1.67, Pct: 0.00,
				VolumeBand: workload.Band{3.3e9, 3.7e9}},
			{Op: "Open", Count: 157, Volume: -1, Seconds: 518.74, Pct: 1.58},
			{Op: "Close", Count: 156, Volume: -1, Seconds: 11.50, Pct: 0.04},
		},
		Read: [4]int64{165, 109, 51225, 0}, Write: [4]int64{43, 158, 6, 0},
		Wall: 1008, WallBand: workload.Band{750, 1350},
	}},
	Headline: func(func(iotrace.Phase) []iotrace.Event) string {
		return fmt.Sprintf("§7.2 recompute-vs-reread break-even: %.1f MB/s per node (paper: 5-10)",
			DefaultCrossoverModel().BreakEvenRate()/1e6)
	},
}

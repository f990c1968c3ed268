package core

import (
	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// meanFor returns the mean per-operation node time over the labelled summary
// rows (e.g. "Read" + "AsynchRead" for the paper's read columns).
func meanFor(s analysis.OpSummary, labels ...string) (sim.Time, int64) {
	var n int64
	var t sim.Time
	for _, l := range labels {
		if r := s.Row(l); r != nil {
			n += r.Count
			t += r.NodeTime
		}
	}
	if n == 0 {
		return 0, 0
	}
	return t / sim.Time(n), n
}

// syntheticStudy returns the study that runs one synthetic workload under
// pcfg.
func syntheticStudy(scfg workload.SyntheticConfig, pcfg pfs.Config) Study {
	return Study{App: scfg, Machine: workload.MachineConfig{PFS: pcfg}, KeepTrace: true}
}

// modeCell is one row of a mode-by-mode comparison sweep: the workload plus
// the summary labels its latency column reads.
type modeCell struct {
	name   string
	op     string
	labels []string
	scfg   workload.SyntheticConfig
}

// modeCells builds the six per-mode synthetic workloads of the integrity mode
// sweep.
func modeCells() []modeCell {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	cells := make([]modeCell, 0, len(modes))
	for _, mode := range modes {
		cell := modeCell{
			name:   mode.String(),
			op:     "Write",
			labels: []string{"Write"},
			scfg: workload.SyntheticConfig{
				Nodes:       8,
				Mode:        mode,
				RecordBytes: 4096,
				Records:     32,
			},
		}
		if mode == iotrace.ModeGlobal {
			cell.op, cell.labels = "Read", []string{"Read"}
		}
		cells = append(cells, cell)
	}
	return cells
}

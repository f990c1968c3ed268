// Ablation benchmarks for the design decisions DESIGN.md calls out and the
// file-system implications §8 discusses: initialization-read strategies
// (single-reader-plus-broadcast vs independent vs collective), the six PFS
// access modes under a many-small-writes workload, the I/O-node stream
// cache, and PPFS aggregation granularity.
package iochar_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newBenchMachine builds a small machine for micro-ablations.
func newBenchMachine(b *testing.B, nodes int, mut func(*workload.MachineConfig)) *workload.Machine {
	b.Helper()
	cfg := workload.DefaultMachineConfig()
	cfg.ComputeNodes = nodes
	if mut != nil {
		mut(&cfg)
	}
	m, err := workload.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationInitStrategies compares the three ways ESCAT/RENDER could
// load their initialization data (§5.2/§6.2/§8): one node reads and
// broadcasts (what both codes do), every node reads the file independently
// (what ESCAT's developers measured to be slower), and a collective
// M_GLOBAL read (what §8 argues file systems should offer).
func BenchmarkAblationInitStrategies(b *testing.B) {
	const (
		nodes    = 32
		dataSize = 8 << 20
	)
	strategies := map[string]func(m *workload.Machine) sim.Time{
		"broadcast": func(m *workload.Machine) sim.Time {
			m.PFS.Preload("data", dataSize)
			m.Eng.Spawn("reader", func(p *sim.Process) {
				h, err := m.PFS.Open(p, 0, "data", iotrace.ModeUnix)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := h.Read(p, dataSize); err != nil {
					b.Error(err)
				}
				m.Mesh.Broadcast(p, 0, nodes, dataSize)
			})
			if err := m.Eng.Run(); err != nil {
				b.Fatal(err)
			}
			return m.Eng.Now()
		},
		"independent": func(m *workload.Machine) sim.Time {
			m.PFS.Preload("data", dataSize)
			for node := 0; node < nodes; node++ {
				node := node
				m.Eng.Spawn(fmt.Sprintf("r%d", node), func(p *sim.Process) {
					h, err := m.PFS.Open(p, node, "data", iotrace.ModeUnix)
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := h.Read(p, dataSize); err != nil {
						b.Error(err)
					}
				})
			}
			if err := m.Eng.Run(); err != nil {
				b.Fatal(err)
			}
			return m.Eng.Now()
		},
		"collective": func(m *workload.Machine) sim.Time {
			m.PFS.Preload("data", dataSize)
			for node := 0; node < nodes; node++ {
				node := node
				m.Eng.Spawn(fmt.Sprintf("r%d", node), func(p *sim.Process) {
					h, err := m.PFS.Open(p, node, "data", iotrace.ModeGlobal)
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := h.Read(p, dataSize); err != nil {
						b.Error(err)
					}
				})
			}
			if err := m.Eng.Run(); err != nil {
				b.Fatal(err)
			}
			return m.Eng.Now()
		},
	}
	results := map[string]sim.Time{}
	for i := 0; i < b.N; i++ {
		for name, fn := range strategies {
			results[name] = fn(newBenchMachine(b, nodes, nil))
		}
	}
	for name, d := range results {
		b.ReportMetric(d.Seconds(), name+"-s")
	}
}

// BenchmarkAblationAccessModes drives the same workload — every node writes
// 32 x 4 KB records — through each PFS access mode, quantifying §8's point
// that mode choice (synchronization discipline) dominates small-request
// performance.
func BenchmarkAblationAccessModes(b *testing.B) {
	const (
		nodes   = 16
		records = 32
		recSize = 4096
	)
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeAsync,
	}
	results := map[iotrace.AccessMode]sim.Time{}
	for i := 0; i < b.N; i++ {
		for _, mode := range modes {
			mode := mode
			m := newBenchMachine(b, nodes, nil)
			m.PFS.Preload("shared", 0)
			for node := 0; node < nodes; node++ {
				node := node
				m.Eng.Spawn(fmt.Sprintf("w%d", node), func(p *sim.Process) {
					var h *pfs.Handle
					var err error
					if mode == iotrace.ModeRecord {
						h, err = m.PFS.OpenRecord(p, node, "shared", recSize)
					} else {
						h, err = m.PFS.Open(p, node, "shared", mode)
					}
					if err != nil {
						b.Error(err)
						return
					}
					if mode == iotrace.ModeUnix || mode == iotrace.ModeAsync {
						// Independent pointers need disjoint regions.
						if _, err := h.Seek(p, int64(node)*records*recSize, pfs.SeekStart); err != nil {
							b.Error(err)
							return
						}
					}
					for r := 0; r < records; r++ {
						if _, err := h.Write(p, recSize); err != nil {
							b.Error(err)
							return
						}
					}
				})
			}
			if err := m.Eng.Run(); err != nil {
				b.Fatal(err)
			}
			results[mode] = m.Eng.Now()
		}
	}
	for mode, d := range results {
		b.ReportMetric(d.Seconds(), mode.String()+"-s")
	}
}

// BenchmarkAblationStreamCache varies the I/O nodes' stream-cache depth
// under interleaved per-node sequential read streams — the design decision
// that separates RENDER's cheap control-file reads from HTF's
// positioning-bound integral rereads.
func BenchmarkAblationStreamCache(b *testing.B) {
	const (
		nodes  = 16
		reads  = 64 // 64 chunks round-robin over 16 arrays: 4 per array per file
		rdSize = 64 * 1024
	)
	for _, depth := range []int{1, 4, 16} {
		depth := depth
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			var wall sim.Time
			for i := 0; i < b.N; i++ {
				m := newBenchMachine(b, nodes, func(c *workload.MachineConfig) {
					c.PFS.Disk.StreamCache = depth
					// Cheap opens so the storm does not mask the read phase.
					c.PFS.Cost.OpenService = 1 * sim.Millisecond
				})
				for node := 0; node < nodes; node++ {
					name := fmt.Sprintf("f%d", node)
					m.PFS.Preload(name, reads*rdSize)
				}
				for node := 0; node < nodes; node++ {
					node := node
					m.Eng.Spawn(fmt.Sprintf("r%d", node), func(p *sim.Process) {
						h, err := m.PFS.Open(p, node, fmt.Sprintf("f%d", node), iotrace.ModeUnix)
						if err != nil {
							b.Error(err)
							return
						}
						for r := 0; r < reads; r++ {
							if _, err := h.Read(p, rdSize); err != nil {
								b.Error(err)
								return
							}
						}
					})
				}
				if err := m.Eng.Run(); err != nil {
					b.Fatal(err)
				}
				wall = m.Eng.Now()
			}
			b.ReportMetric(wall.Seconds(), "wall-s")
		})
	}
}

// BenchmarkReplayIONodeSweep replays the reduced ESCAT trace across I/O-node
// populations — the §8 question of how much parallel storage an application
// pattern can exploit.
func BenchmarkReplayIONodeSweep(b *testing.B) {
	r, err := core.Run(core.SmallStudy(core.ESCAT))
	if err != nil {
		b.Fatal(err)
	}
	cfg := replay.Config{Trace: r.Events}
	results := map[int]sim.Time{}
	for i := 0; i < b.N; i++ {
		for _, ion := range []int{1, 4, 16} {
			mc := workload.DefaultMachineConfig()
			mc.PFS.IONodes = ion
			res, err := core.Run(core.Study{App: cfg, Machine: mc, KeepTrace: true})
			if err != nil {
				b.Fatal(err)
			}
			results[ion] = res.Wall
		}
	}
	for ion, d := range results {
		b.ReportMetric(d.Seconds(), fmt.Sprintf("ionodes%d-s", ion))
	}
}

// Sixmodes demonstrates the semantics and cost of Intel PFS's six parallel
// file access modes (§3.2) on one workload: eight nodes each appending
// eight 4 KB records to a shared file. It prints, per mode, where each
// node's data landed and what the access discipline cost — the §8 point
// that mode choice (i.e. synchronization discipline) dominates small-request
// performance on a parallel file system. Each mode runs as a study of the
// synthetic one-shared-file workload.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// modes pairs each PFS mode with the discipline it imposes.
var modes = []struct {
	mode iotrace.AccessMode
	note string
}{
	{iotrace.ModeUnix, "independent pointers, POSIX atomicity (file token serializes)"},
	{iotrace.ModeLog, "shared pointer, first-come-first-served appends"},
	{iotrace.ModeSync, "shared pointer, strict node-number order"},
	{iotrace.ModeRecord, "fixed records interleaved node-major: record j*N+k"},
	{iotrace.ModeGlobal, "all nodes get the same data, one physical read per round"},
	{iotrace.ModeAsync, "independent pointers, no atomicity: full overlap"},
}

func main() {
	log.SetFlags(0)
	fmt.Println("Eight nodes, eight 4 KB records each, one shared file — per PFS mode:")
	fmt.Printf("%-10s %10s %10s   %s\n", "mode", "wall", "node0@", "discipline")
	for _, m := range modes {
		wall, node0First := runMode(m.mode)
		fmt.Printf("%-10s %9.2fs %10d   %s\n", m.mode, wall.Seconds(), node0First, m.note)
	}
}

// runMode runs the workload under one mode and reports its wall clock (each
// node's last operation is its close) and the offset node 0's first record
// landed at. M_GLOBAL is a read discipline (all nodes fetch the same data),
// so the synthetic workload reads a preloaded file there instead of writing.
func runMode(mode iotrace.AccessMode) (sim.Time, int64) {
	r, err := core.Run(core.Study{
		App: workload.SyntheticConfig{
			Nodes: 8, Mode: mode, RecordBytes: 4096, Records: 8,
		},
		Machine:   workload.MachineConfig{PFS: pfs.DefaultConfig()},
		KeepTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range r.Events {
		if e.Node == 0 && e.Op.Moves() {
			return r.Wall, e.Offset
		}
	}
	return r.Wall, -1
}

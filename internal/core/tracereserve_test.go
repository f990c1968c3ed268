package core

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/ppfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// exactReserve fails unless the trace filled exactly the buffer prepare
// reserved from the app's event count: a short count regrows the buffer
// (cap > len after the append doubling), a long one leaves it slack.
func exactReserve(t *testing.T, name string, events []iotrace.Event) {
	t.Helper()
	if len(events) == 0 || len(events) != cap(events) {
		t.Errorf("%s: captured %d events into a buffer of %d; want an exact reserve",
			name, len(events), cap(events))
	}
}

// paperCount sums the count column of app's published operation tables
// (the "All I/O" row is the paper's own total, not a further operation).
func paperCount(app AppID) int {
	n := 0
	for _, pt := range PaperTables() {
		if pt.App != app {
			continue
		}
		for _, row := range pt.Rows {
			if row.Op != "All I/O" {
				n += int(row.Count)
			}
		}
	}
	return n
}

// TestExactTraceReserve holds every run path to an exact trace reserve: each
// app at paper and small scale, checkpointed resilient runs (a restart
// included), a synthetic mode sweep, the logical stream of a PPFS run, and
// the cells of a fleet. A PPFS run's physical stream is checked to be
// unreserved. At paper
// scale the count must also equal the paper's Tables 1, 3 and 5 — a second,
// independent lock on the exact-count contract.
func TestExactTraceReserve(t *testing.T) {
	for _, app := range Apps() {
		paper, err := Run(PaperStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		exactReserve(t, string(app)+" paper", paper.Events)
		if want := paperCount(app); len(paper.Events) != want {
			t.Errorf("%s paper: %d events, the paper's tables count %d", app, len(paper.Events), want)
		}
		small, err := Run(SmallStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		exactReserve(t, string(app)+" small", small.Events)
	}

	restart, err := RunResilient(chaosStudy())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(restart.Attempts); n != 2 || restart.Attempts[1].ResumeUnit == 0 {
		t.Fatalf("attempts %+v, want a restart from a checkpoint", restart.Attempts)
	}
	exactReserve(t, "escat restart", restart.Final.Events)
	htf, err := RunResilient(ResilientStudy{
		Study: SmallStudy(HTF),
		Ckpt:  ckpt.Config{Interval: 1, BytesPerNode: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	exactReserve(t, "htf checkpointed", htf.Final.Events)

	cells := modeCells()
	cells = append(cells, modeCell{name: "random-read", scfg: workload.SyntheticConfig{
		Nodes: 8, Mode: iotrace.ModeAsync, RecordBytes: 64 * 1024, Records: 32,
		Read: true, Random: true, FileBytes: 64 << 20,
	}})
	for _, cell := range cells {
		r, err := Run(syntheticStudy(cell.scfg, pfs.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		exactReserve(t, "synthetic "+cell.name, r.Events)
	}

	// The PPFS physical stream is the one left unreserved: how much the
	// policy's write-behind merges and its cache and prefetch add is known
	// only after the run, so its buffer grows by append alone. Merging leaves
	// it shorter than the logical stream, and it must not be sized from the
	// logical count.
	pol := ppfs.DefaultPolicy()
	ps := SmallStudy(ESCAT)
	ps.Policy = &pol
	pr, err := Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	exactReserve(t, "escat ppfs logical", pr.Events)
	if n := len(pr.Physical); n == 0 || n >= len(pr.Events) || cap(pr.Physical) >= len(pr.Events) {
		t.Errorf("escat ppfs physical: %d events in a buffer of %d, logical stream %d; want an unreserved, shorter stream",
			n, cap(pr.Physical), len(pr.Events))
	}

	fr, err := RunFleet(SmallStudy(ESCAT), FleetOptions{Cells: 2, Shards: 1, Stagger: 20 * sim.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range fr.Cells {
		exactReserve(t, "fleet cell "+string(rune('0'+i)), c.Events)
	}
}

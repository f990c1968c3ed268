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

// eventCounts reduces a trace to the per-op counters a report's Physical
// field holds.
func eventCounts(events []iotrace.Event) OpCounts {
	var c OpCounts
	for _, e := range events {
		c.Count[e.Op]++
		if e.Op.Moves() {
			c.Bytes[e.Op] += e.Bytes
		}
		c.Time[e.Op] += e.End - e.Start
	}
	return c
}

// physicalMatchesEvents fails unless a raw-PFS run's physical counters count
// exactly its trace: without a policy layer the PFS's requests are the
// application's own.
func physicalMatchesEvents(t *testing.T, name string, r *Report) {
	t.Helper()
	if want := eventCounts(r.Events); r.Physical != want {
		t.Errorf("%s: physical counters %+v, the trace counts %+v", name, r.Physical, want)
	}
}

// TestExactTraceReserve holds every run path to an exact trace reserve: each
// app at paper and small scale, checkpointed resilient runs (a restart
// included), a synthetic mode sweep, the logical stream of a PPFS run, and
// the cells of a fleet. At paper scale the count must also equal the paper's
// Tables 1, 3 and 5 — a second, independent lock on the exact-count contract
// — and the physical counters must count the trace. A PPFS run keeps no
// physical trace at all, only its counters.
func TestExactTraceReserve(t *testing.T) {
	for _, app := range Apps() {
		paper, err := Run(PaperStudy(app))
		if err != nil {
			t.Fatal(err)
		}
		exactReserve(t, string(app)+" paper", paper.Events)
		physicalMatchesEvents(t, string(app)+" paper", paper)
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

	// A PPFS run reserves only its logical stream. Its physical stream is
	// counted: write-behind merges the writes into fewer PFS requests.
	pol := ppfs.DefaultPolicy()
	ps := SmallStudy(ESCAT)
	ps.Policy = &pol
	pr, err := Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	exactReserve(t, "escat ppfs logical", pr.Events)
	logical := eventCounts(pr.Events).Count[iotrace.OpWrite]
	if phys := pr.Physical.Count[iotrace.OpWrite]; phys == 0 || phys >= logical {
		t.Errorf("escat ppfs: %d physical writes for %d logical ones; want fewer, and some", phys, logical)
	}

	fr, err := RunFleet(SmallStudy(ESCAT), FleetOptions{Cells: 2, Shards: 1, Stagger: 20 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range fr.Cells {
		exactReserve(t, "fleet cell "+string(rune('0'+i)), c.Events)
	}
}

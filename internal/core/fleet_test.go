package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workerCounts is the oracle's sweep: one worker is the reference every
// other count must match byte for byte.
var workerCounts = []int{1, 2, 4, 8}

// fleetFingerprint renders everything the acceptance criteria hold fixed
// across worker counts: each cell's final file image (with audit verdicts
// and per-node checksum coverage), its full trace digest, and the headline
// report numbers.
func fleetFingerprint(fr *FleetReport, images []string) string {
	var b strings.Builder
	for i, image := range images {
		r := fr.Cells[i]
		fmt.Fprintf(&b, "== cell %d start=%d wall=%d events=%d trace=%016x\n",
			i, fr.Starts[i], r.Wall, len(r.Events), traceDigest(r.Events))
		fmt.Fprintf(&b, "summary %+v\n", r.Summary)
		fmt.Fprintf(&b, "incidents %d failover %+v repair %+v\n",
			len(r.Incidents), r.Failover, r.Repair)
		b.WriteString(image)
	}
	fmt.Fprintf(&b, "makespan %d\n", fr.Makespan)
	return b.String()
}

// traceDigest hashes a rendered event trace; two traces with equal digests
// and equal lengths are identical for the oracle's purposes.
func traceDigest(events []iotrace.Event) uint64 {
	h := fnv.New64a()
	for i := range events {
		fmt.Fprintf(h, "%+v\n", events[i])
	}
	return h.Sum64()
}

// fleetImage runs one fleet configuration and fingerprints it, each cell's
// file image taken in its worker.
func fleetImage(t *testing.T, s Study, opts FleetOptions) string {
	t.Helper()
	images := make([]string, opts.Cells)
	fr, err := runFleet(s, opts, func(i int, m *workload.Machine) {
		images[i] = fingerprint(m.PFS)
	})
	if err != nil {
		t.Fatalf("fleet (workers=%d): %v", opts.Shards, err)
	}
	if want := int64(opts.Cells); fr.Fabric.Mail != want {
		t.Fatalf("fleet launched %d cells, want %d", fr.Fabric.Mail, want)
	}
	return fleetFingerprint(fr, images)
}

// TestFleetByteIdenticalAcrossShardCounts is the acceptance oracle for the
// three applications: a 4-cell staggered fleet must produce byte-identical
// file images, traces, and reports at workers ∈ {1, 2, 4, 8}, with one
// worker (every cell in turn on the calling goroutine) as the reference.
func TestFleetByteIdenticalAcrossShardCounts(t *testing.T) {
	for _, app := range Apps() {
		s := SmallStudy(app)
		s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
		base := FleetOptions{Cells: 4, Stagger: 50 * sim.Millisecond, Shards: 1}
		ref := fleetImage(t, s, base)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("%s: fleet baseline audit not clean:\n%.600s", app, ref)
		}
		for _, workers := range workerCounts[1:] {
			opts := base
			opts.Shards = workers
			if got := fleetImage(t, s, opts); got != ref {
				t.Errorf("%s: fleet results at workers=%d differ from one worker's", app, workers)
			}
		}
	}
}

// syntheticFleetImage runs a fleet of phase-aligned synthetic-workload cells
// under one access mode and fingerprints it.
func syntheticFleetImage(t *testing.T, mode iotrace.AccessMode, cells, workers int) string {
	t.Helper()
	pcfg := pfs.DefaultConfig()
	pcfg.Integrity = integrity.Config{Enabled: true}
	s := syntheticStudy(workload.SyntheticConfig{
		Nodes:       8,
		Mode:        mode,
		RecordBytes: 4096,
		Records:     16,
		Barrier:     true,
	}, pcfg)
	return fleetImage(t, s, FleetOptions{Cells: cells, Stagger: 20 * sim.Millisecond, Shards: workers})
}

// TestFleetModeByteIdenticalAcrossShardCounts extends the oracle across all
// six PFS access modes via the phase-aligned synthetic workload.
func TestFleetModeByteIdenticalAcrossShardCounts(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		ref := syntheticFleetImage(t, mode, 4, 1)
		if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
			t.Fatalf("mode %v: baseline audit not clean:\n%.400s", mode, ref)
		}
		for _, workers := range workerCounts[1:] {
			if got := syntheticFleetImage(t, mode, 4, workers); got != ref {
				t.Errorf("mode %v: results at workers=%d differ from one worker's", mode, workers)
			}
		}
	}
}

// TestFleetRF3ZoneOutageBurst is the feature-stack oracle: RF=3 zone-aware
// replication riding out a full zone blackout, with the burst tier draining
// through the degraded PFS, must stay byte-identical at every worker count —
// and every cell must still audit clean.
func TestFleetRF3ZoneOutageBurst(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	s.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
	s.Machine.PFS.Replication = pfs.ReplicationConfig{
		Factor: 3, Repair: pfs.DefaultRepairConfig(),
	}
	threeZones(&s.Machine.PFS)
	s.Burst = identityBurstCfg()
	s.Faults = zoneOutagePlan(s.Machine.PFS.IONodes, 500*sim.Millisecond, sim.Second)
	s.FaultSeed = 11

	base := FleetOptions{Cells: 3, Stagger: 30 * sim.Millisecond, Shards: 1}
	ref := fleetImage(t, s, base)
	if !strings.Contains(ref, "clean=true") || strings.Contains(ref, "clean=false") {
		t.Fatalf("RF3+outage+burst baseline audit not clean:\n%.600s", ref)
	}
	if strings.Contains(ref, "incidents 0 ") {
		t.Fatalf("zone outage was never realized — the oracle is not exercising the fault path:\n%.600s", ref)
	}
	for _, workers := range []int{2, 4} {
		opts := base
		opts.Shards = workers
		if got := fleetImage(t, s, opts); got != ref {
			t.Errorf("RF3+outage+burst results at workers=%d differ from one worker's", workers)
		}
	}
}

// TestFleetStaggerAndMakespan sanity-checks the fleet-level aggregates: cell
// starts honor the stagger, the makespan is the latest cell finish, and the
// counters name the worker count and one launch per cell.
func TestFleetStaggerAndMakespan(t *testing.T) {
	s := SmallStudy(RENDER)
	fr, err := RunFleet(s, FleetOptions{Cells: 3, Stagger: sim.Second, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fr.Starts); i++ {
		if fr.Starts[i]-fr.Starts[i-1] != sim.Second {
			t.Fatalf("stagger between cells %d and %d is %v, want 1s", i-1, i, fr.Starts[i]-fr.Starts[i-1])
		}
	}
	var latest sim.Time
	for _, r := range fr.Cells {
		if r.Wall > latest {
			latest = r.Wall
		}
	}
	if fr.Makespan != latest {
		t.Fatalf("makespan %v != latest cell wall %v", fr.Makespan, latest)
	}
	if fr.Fabric.Workers != 2 || fr.Fabric.Mail != 3 || fr.Fabric.Windows != 0 {
		t.Fatalf("fleet counters %+v, want 2 workers, 3 launches, 0 windows", fr.Fabric)
	}
}

// TestRunFleetReportsLowestFailingCell checks the fleet's error choice: when
// every cell loses a compute node, the error names cell 0 at any worker
// count, as a sequential loop over the cells would.
func TestRunFleetReportsLowestFailingCell(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.NodeLoss, At: 10 * sim.Millisecond, Node: 1},
	}}
	for _, workers := range []int{1, 2, 4} {
		_, err := RunFleet(s, FleetOptions{Cells: 4, Stagger: 5 * sim.Millisecond, Shards: workers})
		if err == nil {
			t.Fatalf("workers=%d: fleet with a node loss in every cell succeeded", workers)
		}
		if msg := err.Error(); !strings.Contains(msg, "fleet cell 0:") || !strings.Contains(msg, "compute node 1 lost") {
			t.Fatalf("workers=%d: error %q, want cell 0's node loss", workers, msg)
		}
	}
}

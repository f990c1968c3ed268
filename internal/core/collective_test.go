package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/collective"
	"repro/internal/exec"
	"repro/internal/integrity"
	"repro/internal/ionode"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/workload"
)

// collVariants are the PFS configurations the file-image regression compares:
// aggregation must never change what ends up in the files, under either disk
// scheduler.
var collVariants = []struct {
	name string
	coll collective.Config
	sch  ionode.SchedConfig
}{
	{name: "off"},
	{name: "coll-fifo", coll: collective.Config{Enabled: true}},
	{name: "coll-cscan", coll: collective.Config{Enabled: true},
		sch: ionode.SchedConfig{Policy: "cscan", Seed: 7}},
}

// fingerprint renders the final file image of a finished PFS: every file's
// identity and size, its end-of-run integrity audit verdict, and each I/O
// node's checksummed block coverage. Two runs that produce the same
// fingerprint wrote the same bytes to the same places.
func fingerprint(fs *pfs.FileSystem) string {
	fs.AuditIntegrity()
	var b strings.Builder
	for _, fi := range fs.Files() {
		fmt.Fprintf(&b, "file %d %s %d clean=%v\n",
			fi.ID, fi.Name, fi.Size, fs.VerifyFile(fi.Name, "regression"))
	}
	for _, st := range fs.IntegrityStats() {
		fmt.Fprintf(&b, "ion%d tracked=%d injected=%d\n",
			st.Node, st.TrackedBlocks, st.Injected)
	}
	return b.String()
}

// appImage runs one application study to completion and fingerprints the
// resulting file system.
func appImage(t *testing.T, app AppID, coll collective.Config, sch ionode.SchedConfig) string {
	t.Helper()
	study := SmallStudy(app)
	study.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	study.Machine.PFS.Collective = coll
	study.Machine.PFS.Sched = sch
	_, rt, err := prepare(study)
	if err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	if err := rt.run(0); err != nil {
		t.Fatalf("%s: %v", app, err)
	}
	if ae, ok := rt.app.(appErr); ok {
		if err := ae.Err(); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	return fingerprint(rt.m.PFS)
}

// TestCollectiveFileImageApps: every application must leave a byte-identical
// file image — same files, same sizes, same checksummed block coverage, same
// clean audit — whether its I/O went through two-phase aggregation or the
// per-request paths, under either disk scheduler.
func TestCollectiveFileImageApps(t *testing.T) {
	for _, app := range Apps() {
		base := appImage(t, app, collVariants[0].coll, collVariants[0].sch)
		if !strings.Contains(base, "clean=true") {
			t.Fatalf("%s: baseline audit found no clean files:\n%s", app, base)
		}
		if strings.Contains(base, "clean=false") {
			t.Fatalf("%s: baseline audit found corruption:\n%s", app, base)
		}
		for _, v := range collVariants[1:] {
			got := appImage(t, app, v.coll, v.sch)
			if got != base {
				t.Errorf("%s: file image differs with %s:\n--- off ---\n%s--- %s ---\n%s",
					app, v.name, base, v.name, got)
			}
		}
	}
}

// modeImage runs the phase-aligned synthetic workload under one access mode
// and fingerprints the resulting file system.
func modeImage(t *testing.T, mode iotrace.AccessMode, coll collective.Config, sch ionode.SchedConfig) string {
	t.Helper()
	pcfg := pfs.DefaultConfig()
	pcfg.Integrity = integrity.Config{Enabled: true}
	pcfg.Collective = coll
	pcfg.Sched = sch
	m, err := workload.NewMachine(workload.MachineConfig{ComputeNodes: 8, PFS: pcfg})
	if err != nil {
		t.Fatal(err)
	}
	m.PFS.SetRecorder(pablo.NewTracer(false))
	app, err := workload.SyntheticConfig{
		Nodes:       8,
		Mode:        mode,
		RecordBytes: 4096,
		Records:     16,
		Barrier:     true,
	}.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Run(m, workload.WrapPFS(m.PFS), app); err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	if err := app.(*workload.Synthetic).Err(); err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	return fingerprint(m.PFS)
}

// TestCollectiveFileImageModes: the synthetic workload must leave a
// byte-identical file image under every access mode, collective on or off.
// M_RECORD and M_SYNC exercise the aggregated paths; the other modes prove
// the feature leaves them alone.
func TestCollectiveFileImageModes(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		base := modeImage(t, mode, collVariants[0].coll, collVariants[0].sch)
		if strings.Contains(base, "clean=false") {
			t.Fatalf("%s: baseline audit found corruption:\n%s", mode, base)
		}
		for _, v := range collVariants[1:] {
			got := modeImage(t, mode, v.coll, v.sch)
			if got != base {
				t.Errorf("%s: file image differs with %s:\n--- off ---\n%s--- %s ---\n%s",
					mode, v.name, base, v.name, got)
			}
		}
	}
}

// renderCollectiveSweeps runs both collective sweeps and renders the reports
// into one text blob for a byte comparison.
func renderCollectiveSweeps(t *testing.T) string {
	t.Helper()
	var out string
	rows, err := CollectiveSweep(true, collective.Config{},
		ionode.SchedConfig{Policy: "cscan", Seed: 3})
	if err != nil {
		t.Fatalf("CollectiveSweep: %v", err)
	}
	out += analysis.RenderCollectiveSweep("Collective sweep:", rows)
	mrows, err := ModeCollectiveSweep(collective.Config{}, ionode.SchedConfig{})
	if err != nil {
		t.Fatalf("ModeCollectiveSweep: %v", err)
	}
	out += analysis.RenderCollectiveSweep("Mode collective sweep:", mrows)
	return out
}

// TestCollectiveSweepByteIdenticalAcrossWorkerCounts: the collective sweeps
// must render byte-identically at any executor worker count — the aggregation
// machinery (round barriers, straggler timers, seeded schedulers) is entirely
// inside each run's own engine, so -parallel only changes real time.
func TestCollectiveSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	defer exec.SetWorkers(0)

	exec.SetWorkers(1)
	sequential := renderCollectiveSweeps(t)
	exec.SetWorkers(8)
	parallel := renderCollectiveSweeps(t)

	if sequential != parallel {
		t.Fatalf("collective sweep output differs between -parallel=1 and -parallel=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	if len(sequential) == 0 {
		t.Fatal("collective sweeps rendered nothing")
	}
}

// TestCollectiveSweepReductions pins the headline numbers: the round-
// structured modes collapse physical requests by at least 5x and do not slow
// down, while every other mode passes through untouched.
func TestCollectiveSweepReductions(t *testing.T) {
	rows, err := ModeCollectiveSweep(collective.Config{}, ionode.SchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Name {
		case "M_SYNC", "M_RECORD":
			if r.RequestReduction() < 5 {
				t.Errorf("%s: request reduction %.1fx, want >= 5x", r.Name, r.RequestReduction())
			}
			if r.Speedup() < 1 {
				t.Errorf("%s: collective slowed the run down: %.2fx", r.Name, r.Speedup())
			}
			if r.Stats.Rounds == 0 || r.Stats.FullRounds != r.Stats.Rounds {
				t.Errorf("%s: rounds %d full %d, want all full", r.Name, r.Stats.Rounds, r.Stats.FullRounds)
			}
		default:
			if r.BasePhys != r.CollPhys {
				t.Errorf("%s: control mode physical requests changed: %d vs %d",
					r.Name, r.BasePhys, r.CollPhys)
			}
			if r.Stats.Rounds != 0 {
				t.Errorf("%s: control mode saw %d rounds", r.Name, r.Stats.Rounds)
			}
		}
	}
}

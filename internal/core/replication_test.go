package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// threeZones labels a fleet's I/O nodes round-robin across three outage
// domains, the layout the scenario fleet templates generate.
func threeZones(cfg *pfs.Config) {
	cfg.Nodes = make([]pfs.NodeConfig, cfg.IONodes)
	for i := range cfg.Nodes {
		cfg.Nodes[i].Zone = i % 3
	}
}

// fileImage fingerprints only the logical file contents — identity, size and
// end-of-run audit verdict — so it compares across replication factors (the
// per-node block coverage legitimately grows with each copy).
func fileImage(fs *pfs.FileSystem) string {
	fs.AuditIntegrity()
	var b strings.Builder
	for _, fi := range fs.Files() {
		fmt.Fprintf(&b, "file %d %s %d clean=%v\n",
			fi.ID, fi.Name, fi.Size, fs.VerifyFile(fi.Name, "regression"))
	}
	return b.String()
}

// replicatedStudy configures a small study with integrity auditing, failover,
// N-way replication over three zones, and the repair daemon.
func replicatedStudy(app AppID, rf int) Study {
	study := SmallStudy(app)
	study.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	study.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
	study.Machine.PFS.Replication = pfs.ReplicationConfig{
		Factor: rf, Repair: pfs.DefaultRepairConfig(),
	}
	threeZones(&study.Machine.PFS)
	return study
}

// appImageAtRF runs one application study and fingerprints the logical file
// image.
func appImageAtRF(t *testing.T, app AppID, rf int) string {
	t.Helper()
	study := replicatedStudy(app, rf)
	_, rt, err := prepare(study, nil)
	if err != nil {
		t.Fatalf("%s rf=%d: %v", app, rf, err)
	}
	if err := rt.run(0); err != nil {
		t.Fatalf("%s rf=%d: %v", app, rf, err)
	}
	if ae, ok := rt.app.(appErr); ok {
		if err := ae.Err(); err != nil {
			t.Fatalf("%s rf=%d: %v", app, rf, err)
		}
	}
	return fileImage(rt.m.PFS)
}

// TestReplicationFileImageApps: every application must leave a byte-identical
// logical file image at RF 1, 2 and 3 — replication is a durability knob, not
// a semantics knob.
func TestReplicationFileImageApps(t *testing.T) {
	for _, app := range Apps() {
		base := appImageAtRF(t, app, 1)
		if !strings.Contains(base, "clean=true") || strings.Contains(base, "clean=false") {
			t.Fatalf("%s: rf=1 baseline audit unclean:\n%s", app, base)
		}
		for rf := 2; rf <= 3; rf++ {
			if got := appImageAtRF(t, app, rf); got != base {
				t.Errorf("%s: file image differs at rf=%d:\n--- rf=1 ---\n%s--- rf=%d ---\n%s",
					app, rf, base, rf, got)
			}
		}
	}
}

// modeImageAtRF runs the phase-aligned synthetic workload under one access
// mode and replication factor.
func modeImageAtRF(t *testing.T, mode iotrace.AccessMode, rf int) string {
	t.Helper()
	pcfg := pfs.DefaultConfig()
	pcfg.Integrity = integrity.Config{Enabled: true}
	pcfg.Failover = pfs.DefaultFailoverConfig()
	pcfg.Replication = pfs.ReplicationConfig{Factor: rf, Repair: pfs.DefaultRepairConfig()}
	threeZones(&pcfg)
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
		t.Fatalf("%s rf=%d: %v", mode, rf, err)
	}
	if err := app.(*workload.Synthetic).Err(); err != nil {
		t.Fatalf("%s rf=%d: %v", mode, rf, err)
	}
	return fileImage(m.PFS)
}

// TestReplicationFileImageModes: the synthetic workload must leave a
// byte-identical logical file image under every access mode at every RF.
func TestReplicationFileImageModes(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		base := modeImageAtRF(t, mode, 1)
		if strings.Contains(base, "clean=false") {
			t.Fatalf("%s: rf=1 baseline audit unclean:\n%s", mode, base)
		}
		for rf := 2; rf <= 3; rf++ {
			if got := modeImageAtRF(t, mode, rf); got != base {
				t.Errorf("%s: file image differs at rf=%d:\n--- rf=1 ---\n%s--- rf=%d ---\n%s",
					mode, rf, base, rf, got)
			}
		}
	}
}

// zoneOutagePlan fails every zone-1 I/O node of a three-zone, 16-node fleet
// simultaneously.
func zoneOutagePlan(nion int, at, dur sim.Time) fault.Plan {
	var plan fault.Plan
	for n := 0; n < nion; n++ {
		if n%3 == 1 {
			plan.Events = append(plan.Events, fault.Event{
				Kind: fault.IONodeOutage, At: at, Node: n, Duration: dur,
			})
		}
	}
	return plan
}

// TestZoneOutageRF3PaperScale is the tentpole oracle at full paper scale: the
// ESCAT paper run with RF=3 over three zones must survive a complete zone
// outage with zero lost bytes — the final file image byte-identical to the
// no-fault run — and the repair daemon must restore full redundancy in
// finite time.
func TestZoneOutageRF3PaperScale(t *testing.T) {
	build := func(plan fault.Plan) Study {
		study := PaperStudy(ESCAT)
		study.KeepTrace = false
		study.Machine.PFS.Integrity = integrity.Config{Enabled: true}
		study.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
		study.Machine.PFS.Replication = pfs.ReplicationConfig{
			Factor: 3, Repair: pfs.DefaultRepairConfig(),
		}
		threeZones(&study.Machine.PFS)
		study.Faults = plan
		return study
	}

	run := func(study Study) (*Report, string) {
		s, rt, err := prepare(study, nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.arm(s, planEvents(s), 0)
		if err := rt.run(0); err != nil {
			t.Fatalf("app died despite RF=3: %v", err)
		}
		if ae, ok := rt.app.(appErr); ok {
			if err := ae.Err(); err != nil {
				t.Fatalf("app error despite RF=3: %v", err)
			}
		}
		return rt.report(s), fileImage(rt.m.PFS)
	}

	// ESCAT's quadrature writes start at ~170 s and run to the end; a 60 s
	// zone blackout at t=175 s lands mid-write.
	faulted, faultImage := run(build(zoneOutagePlan(16, 175*sim.Second, 60*sim.Second)))
	_, baseImage := run(build(fault.Plan{}))

	if strings.Contains(baseImage, "clean=false") {
		t.Fatalf("no-fault audit unclean:\n%s", baseImage)
	}
	if faultImage != baseImage {
		t.Errorf("zone outage lost bytes: file image differs\n--- no-fault ---\n%s--- outage ---\n%s",
			baseImage, faultImage)
	}
	fo := faulted.Failover
	if fo.Reroutes == 0 {
		t.Error("outage never bit: no failover reroutes recorded")
	}
	if fo.Failed != 0 {
		t.Errorf("Failed = %d, want 0 at RF=3", fo.Failed)
	}
	st := faulted.Repair
	if st.Outages == 0 {
		t.Error("repair plane observed no outages")
	}
	if st.LedgerPuts == 0 || st.ChunksRepaired != st.LedgerPuts {
		t.Errorf("repair incomplete: puts=%d repaired=%d abandoned=%d",
			st.LedgerPuts, st.ChunksRepaired, st.Abandoned)
	}
	if st.LedgerPuts != st.LedgerDrains {
		t.Errorf("ledger not drained: puts=%d drains=%d", st.LedgerPuts, st.LedgerDrains)
	}
	if st.TimeToFullRedundancy() <= 0 {
		t.Errorf("TimeToFullRedundancy = %v, want > 0 (repair takes finite, nonzero time)",
			st.TimeToFullRedundancy())
	}
	if st.WindowOfVulnerability() <= 0 {
		t.Errorf("WindowOfVulnerability = %v, want > 0", st.WindowOfVulnerability())
	}
}

// TestReplicatedSweepsByteIdenticalAcrossWorkers: the checkpoint-interval
// sweep of a replicated, repairing, zone-outage-riddled study must render
// byte-identically at any -parallel worker count.
func TestReplicatedSweepsByteIdenticalAcrossWorkers(t *testing.T) {
	defer exec.SetWorkers(0)

	sweep := func() string {
		rs := ResilientStudy{
			Study:       replicatedStudy(ESCAT, 3),
			RestartCost: 1500 * sim.Millisecond,
			MaxAttempts: 4,
		}
		rs.Study.Faults = zoneOutagePlan(16, 3*sim.Second, 1*sim.Second)
		pts, err := TradeoffSweep(rs, []int{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, pt := range pts {
			fmt.Fprintf(&b, "%+v\n", pt)
		}
		return b.String()
	}

	exec.SetWorkers(1)
	seq := sweep()
	exec.SetWorkers(8)
	par := sweep()
	if seq != par {
		t.Fatalf("sweep differs across worker counts:\n--- 1 ---\n%s--- 8 ---\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("sweep rendered nothing")
	}
}

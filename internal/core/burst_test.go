package core

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/burst"
	"repro/internal/ckpt"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// identityBurstCfg is a tier configuration whose drained image must be
// byte-identical to a direct-PFS run: compression off, so wire bytes equal
// logical bytes, with prefixes covering every application output file.
func identityBurstCfg() burst.Config {
	cfg := burst.DefaultConfig()
	cfg.Compress = burst.CompressConfig{}
	cfg.Prefixes = []string{
		"escat.quad", "escat.sys", // ESCAT staging and outputs
		"frame",                              // RENDER frames
		"integrals.", "pscf.scratch", "htf.", // HTF integral/scratch/setup files
	}
	return cfg
}

// burstAppImage runs one application study to completion — with or without
// the burst tier — and fingerprints the resulting file system. The engine
// only goes idle once every drain daemon's queue is empty, so the image is
// the fully drained one.
func burstAppImage(t *testing.T, app AppID, bcfg burst.Config) string {
	t.Helper()
	study := SmallStudy(app)
	study.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	study.Burst = bcfg
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
	if bcfg.Enabled {
		st := rt.burst.Stats()
		if st.Committed == 0 {
			t.Fatalf("%s: burst tier intercepted nothing", app)
		}
		if st.UndrainedRecords != 0 {
			t.Fatalf("%s: %d records undrained after the engine went idle",
				app, st.UndrainedRecords)
		}
	}
	return fingerprint(rt.m.PFS)
}

// TestBurstFileImageApps: every application must leave a byte-identical file
// image — same files, same sizes, same checksummed block coverage, same clean
// audit — whether its writes went through the burst tier (fully drained) or
// straight to the PFS.
func TestBurstFileImageApps(t *testing.T) {
	for _, app := range Apps() {
		base := burstAppImage(t, app, burst.Config{})
		if !strings.Contains(base, "clean=true") || strings.Contains(base, "clean=false") {
			t.Fatalf("%s: baseline audit not clean:\n%s", app, base)
		}
		got := burstAppImage(t, app, identityBurstCfg())
		if got != base {
			t.Errorf("%s: drained image differs from direct PFS:\n--- direct ---\n%s--- burst ---\n%s",
				app, base, got)
		}
	}
}

// burstModeImage runs the synthetic workload under one access mode, with or
// without the tier interposed, and fingerprints the file system. No prefixes
// are registered: M_LOG is the intercepted mode, the other five must pass
// through the tier untouched.
func burstModeImage(t *testing.T, mode iotrace.AccessMode, useBurst bool) string {
	t.Helper()
	pcfg := pfs.DefaultConfig()
	pcfg.Integrity = integrity.Config{Enabled: true}
	m, err := workload.NewMachine(workload.MachineConfig{ComputeNodes: 8, PFS: pcfg})
	if err != nil {
		t.Fatal(err)
	}
	m.PFS.SetRecorder(pablo.NewTracer(false))
	var fs workload.FS = workload.WrapPFS(m.PFS)
	var tier *burst.Tier
	if useBurst {
		cfg := burst.DefaultConfig()
		cfg.Compress = burst.CompressConfig{}
		tier, err = burst.New(m.Eng, m.PFS, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs = tier
	}
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
	if err := workload.Run(m, fs, app); err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	if err := app.(*workload.Synthetic).Err(); err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	if tier != nil {
		st := tier.Stats()
		if mode == iotrace.ModeLog && st.Committed == 0 {
			t.Fatalf("M_LOG traffic was not intercepted")
		}
		if mode != iotrace.ModeLog && st.Committed != 0 {
			t.Fatalf("%s: tier intercepted %d records of a non-M_LOG mode",
				mode, st.Committed)
		}
	}
	return fingerprint(m.PFS)
}

// TestBurstFileImageModes: the synthetic workload must leave a byte-identical
// file image under every access mode with the tier interposed. M_LOG
// exercises the interception path; the other five prove pass-through.
func TestBurstFileImageModes(t *testing.T) {
	modes := []iotrace.AccessMode{
		iotrace.ModeUnix, iotrace.ModeLog, iotrace.ModeSync,
		iotrace.ModeRecord, iotrace.ModeGlobal, iotrace.ModeAsync,
	}
	for _, mode := range modes {
		base := burstModeImage(t, mode, false)
		if strings.Contains(base, "clean=false") {
			t.Fatalf("%s: baseline audit found corruption:\n%s", mode, base)
		}
		got := burstModeImage(t, mode, true)
		if got != base {
			t.Errorf("%s: file image differs with burst tier:\n--- off ---\n%s--- on ---\n%s",
				mode, base, got)
		}
	}
}

// ckptBurstStudy is the shared resilient configuration for the node-loss
// tests: small ESCAT, checkpointing every unit through the burst tier.
func ckptBurstStudy(bcfg burst.Config, plan fault.Plan) ResilientStudy {
	study := SmallStudy(ESCAT)
	study.Burst = bcfg
	study.Faults = plan
	study.FaultSeed = 17
	return ResilientStudy{
		Study:       study,
		Ckpt:        ckpt.Config{Interval: 1, BytesPerNode: 256 << 10},
		RestartCost: sim.Second,
	}
}

// runNodeLoss executes the canonical node-loss scenario and returns the
// report.
func runNodeLoss(t *testing.T, bcfg burst.Config) *ResilientReport {
	t.Helper()
	plan := fault.Plan{Events: []fault.Event{
		{Kind: fault.NodeLoss, At: 5 * sim.Second, Node: 2},
	}}
	rr, err := RunResilient(ckptBurstStudy(bcfg, plan))
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestNodeLossLostWorkDeterministic: a compute-node loss kills the attempt at
// the injection instant, costs deterministic lost work, and the job completes
// on the restart.
func TestNodeLossLostWorkDeterministic(t *testing.T) {
	bcfg := burst.DefaultConfig()
	bcfg.Compress = burst.CompressConfig{}
	a := runNodeLoss(t, bcfg)
	b := runNodeLoss(t, bcfg)

	if len(a.Attempts) != 2 || !a.Attempts[0].Failed || a.Attempts[1].Failed {
		t.Fatalf("attempts %+v, want one failure then success", a.Attempts)
	}
	if got := a.Attempts[0].End; got != 5*sim.Second {
		t.Errorf("attempt died at %v, want the 5s loss instant", got)
	}
	if a.LostWork <= 0 {
		t.Errorf("lost work %v, want > 0", a.LostWork)
	}
	var loss int
	for _, inc := range a.Incidents {
		if inc.Kind == fault.NodeLoss {
			loss++
			if inc.Node != 2 {
				t.Errorf("loss incident on node %d, want 2", inc.Node)
			}
		}
	}
	if loss != 1 {
		t.Errorf("%d node-loss incidents, want 1", loss)
	}

	if a.Wall != b.Wall || a.LostWork != b.LostWork || a.BurstLostBytes != b.BurstLostBytes {
		t.Errorf("node-loss run not deterministic:\nwall %v vs %v\nlost %v vs %v\nburst-lost %d vs %d",
			a.Wall, b.Wall, a.LostWork, b.LostWork, a.BurstLostBytes, b.BurstLostBytes)
	}
	if len(a.Attempts) != len(b.Attempts) {
		t.Errorf("attempt counts differ: %d vs %d", len(a.Attempts), len(b.Attempts))
	}
}

// TestNodeLossRejectsUndrainedCheckpoint: with a drain too slow to ever
// finish a record (1 B/s against a ~9s run), every checkpoint generation's
// newest records die in the volatile log — the restart must reject those
// generations instead of restoring from data that never reached the PFS, and
// the lost log content must be accounted.
func TestNodeLossRejectsUndrainedCheckpoint(t *testing.T) {
	bcfg := burst.DefaultConfig()
	bcfg.Compress = burst.CompressConfig{}
	bcfg.CapacityBytes = 1 << 30 // never backpressure: records only accumulate
	bcfg.DrainBWBytesPerS = 1
	rr := runNodeLoss(t, bcfg)

	if rr.Ckpt.DrainRejects == 0 {
		t.Errorf("no checkpoint generation rejected for undrained records: %+v", rr.Ckpt)
	}
	if rr.BurstLostBytes == 0 {
		t.Error("node loss with an undrained log accounted no lost burst bytes")
	}
	if rr.Attempts[0].ResumeUnit != 0 || rr.Attempts[1].ResumeUnit != 0 {
		t.Errorf("restart resumed from a rejected checkpoint: %+v", rr.Attempts)
	}
	if rr.Final == nil {
		t.Fatal("run did not complete")
	}
}

// renderBurstSweep runs the small sweep and renders it for byte comparison.
func renderBurstSweep(t *testing.T) (string, []analysis.BurstComparison) {
	t.Helper()
	rows, err := BurstSweep(true, ckpt.Config{Interval: 1, BytesPerNode: 1 << 20},
		burst.DefaultConfig())
	if err != nil {
		t.Fatalf("BurstSweep: %v", err)
	}
	return analysis.RenderBurstSweep("Burst sweep:", rows), rows
}

// TestBurstSweepSmall is the CI smoke: the tier must cut checkpoint stall for
// the checkpointing applications (ESCAT, HTF) without slowing any app down,
// and the sweep must render byte-identically at any worker count.
func TestBurstSweepSmall(t *testing.T) {
	defer exec.SetWorkers(0)
	exec.SetWorkers(1)
	sequential, rows := renderBurstSweep(t)
	exec.SetWorkers(4)
	parallel, _ := renderBurstSweep(t)
	if sequential != parallel {
		t.Fatalf("burst sweep differs between -parallel=1 and -parallel=4:\n--- 1 ---\n%s--- 4 ---\n%s",
			sequential, parallel)
	}

	for _, r := range rows {
		if r.Report == nil || r.Report.Stats.Committed == 0 {
			t.Errorf("%s: tier absorbed nothing", r.Name)
			continue
		}
		if r.Speedup() < 1 {
			t.Errorf("%s: burst tier slowed the run: %.2fx", r.Name, r.Speedup())
		}
		switch r.Name {
		case "escat", "htf":
			if r.StallReduction() <= 1 {
				t.Errorf("%s: checkpoint stall not reduced: %v -> %v",
					r.Name, r.DirectStall, r.BurstStall)
			}
		}
	}
}

// TestHTFNodeLossRestart: HTF checkpoints its SCF passes — a compute-node
// loss after both passes committed restarts straight into the pscf tail,
// restoring every node's state from the checkpoint through the burst tier.
func TestHTFNodeLossRestart(t *testing.T) {
	study := SmallStudy(HTF)
	study.Burst = burst.DefaultConfig()
	study.Faults = fault.Plan{Events: []fault.Event{
		{Kind: fault.NodeLoss, At: 90 * sim.Second, Node: 1},
	}}
	rr, err := RunResilient(ResilientStudy{
		Study:       study,
		Ckpt:        ckpt.Config{Interval: 1, BytesPerNode: 512 << 10},
		RestartCost: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Final == nil || len(rr.Attempts) != 2 {
		t.Fatalf("attempts %+v, want a failure then success", rr.Attempts)
	}
	htfNodes := SmallStudy(HTF).App.ComputeNodes()
	if got := rr.Attempts[1].ResumeUnit; got != 2 {
		t.Errorf("restart resumed at pass %d, want 2 (both passes committed)", got)
	}
	if rr.Ckpt.Restores != htfNodes {
		t.Errorf("Restores = %d, want one per node (%d)", rr.Ckpt.Restores, htfNodes)
	}
	if rr.LostWork <= 0 || rr.LostWork >= 90*sim.Second {
		t.Errorf("lost work %v, want in (0, 90s): the commit bounds the loss", rr.LostWork)
	}
}

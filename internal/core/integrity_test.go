package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/integrity"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// sweepCorruptionPlan builds the single-class corruption plan one sweep cell
// injects. Rates are calibrated for the small studies' resident data.
func sweepCorruptionPlan(class integrity.Class) fault.CorruptionPlan {
	switch class {
	case integrity.BitRot:
		return fault.CorruptionPlan{BitRotPerGBHour: 2e5, Start: 0, End: 60 * sim.Second}
	case integrity.TornWrite:
		return fault.CorruptionPlan{TornWriteProb: 0.05}
	case integrity.Misdirected:
		return fault.CorruptionPlan{MisdirectProb: 0.05}
	}
	return fault.CorruptionPlan{}
}

// CorruptionSweep runs each small application under each corruption class
// with the integrity layer (and scrubber) enabled, and tallies detection
// coverage from the corruption event log. The invariant the robustness work claims — no
// injected error stays both undetected and unresolved — shows up as a zero
// Latent column: every corruption is either detected (by a read, the
// scrubber, or the end-of-run audit) or healed by a later full rewrite of its
// block. The sweep is deterministic: same seed, same rows.
func CorruptionSweep(seed uint64) ([]CorruptionSweepRow, error) {
	classes := []integrity.Class{integrity.BitRot, integrity.TornWrite, integrity.Misdirected}
	type cell struct {
		app   AppID
		class integrity.Class
	}
	var cells []cell
	for _, app := range Apps() {
		for _, class := range classes {
			cells = append(cells, cell{app, class})
		}
	}
	return exec.Map(cells, func(_ int, c cell) (CorruptionSweepRow, error) {
		study := SmallStudy(c.app)
		study.Machine.PFS.Integrity = integrity.Config{
			Enabled: true,
			Scrub: integrity.ScrubConfig{
				Enabled:       true,
				RateBytesPerS: 16 << 20,
				Window:        60 * sim.Second,
			},
		}
		// Unrepairable classes (torn, misdirected) need the replica path
		// and the client's corrupt-read retries to survive the run.
		study.Machine.PFS.Failover = pfs.DefaultFailoverConfig()
		study.Machine.PFS.Replication.Factor = 2
		study.Machine.PFS.Reliability = pfs.DefaultReliabilityConfig()
		study.Faults.Corruption = sweepCorruptionPlan(c.class)
		study.FaultSeed = seed
		r, err := Run(study)
		if err != nil {
			return CorruptionSweepRow{}, fmt.Errorf("corruption sweep: %s/%s: %w", c.app, c.class, err)
		}
		row := CorruptionSweepRow{App: string(c.app), Class: c.class}
		if r.Integrity != nil {
			for _, cc := range r.Integrity.ByClass() {
				if cc.Class != c.class {
					continue
				}
				row.Injected = cc.Injected
				row.Detected = cc.Detected
				row.Repaired = cc.Repaired + cc.Rewritten
				row.Unrepairable = cc.Unrepairable
				row.Latent = cc.Latent
			}
		}
		return row, nil
	})
}

// ModeIntegritySweep measures the checksum layer's verify overhead under all
// six PFS access modes: one synthetic workload per mode, run with the layer
// off and then on, no corruption injected — the cost of integrity on the
// healthy path.
func ModeIntegritySweep(icfg integrity.Config) ([]IntegrityOverheadRow, error) {
	icfg.Enabled = true
	base := pfs.DefaultConfig()
	verCfg := base
	verCfg.Integrity = icfg

	// The runs fan out as [cell0 base, cell0 verified, cell1 base, ...].
	cells := modeCells()
	reports, err := exec.Map(make([]struct{}, 2*len(cells)), func(j int, _ struct{}) (*Report, error) {
		pcfg := base
		if j%2 == 1 {
			pcfg = verCfg
		}
		return Run(syntheticStudy(cells[j/2].scfg, pcfg))
	})
	if err != nil {
		return nil, fmt.Errorf("integrity sweep: %w", err)
	}
	rows := make([]IntegrityOverheadRow, 0, len(cells))
	for i, cell := range cells {
		b, v := reports[2*i], reports[2*i+1]
		bm, n := meanFor(b.Summary, cell.labels...)
		vm, _ := meanFor(v.Summary, cell.labels...)
		rows = append(rows, IntegrityOverheadRow{
			Mode: cell.name, Op: cell.op, Ops: n,
			BaseMean: bm, Verified: vm,
			BaseWall: b.Wall, VerWall: v.Wall,
		})
	}
	return rows, nil
}

// IntegrityOverheadRow is one access mode's verify-overhead measurement: the
// same synthetic workload run with the integrity layer off and on.
type IntegrityOverheadRow struct {
	Mode     string
	Op       string
	Ops      int64
	BaseMean sim.Time // mean per-op node time, integrity off
	Verified sim.Time // mean per-op node time, integrity on
	BaseWall sim.Time
	VerWall  sim.Time
}

// Overhead returns the relative per-op slowdown (0 when no baseline).
func (r IntegrityOverheadRow) Overhead() float64 {
	if r.BaseMean <= 0 {
		return 0
	}
	return float64(r.Verified)/float64(r.BaseMean) - 1
}

// RenderIntegrityOverhead formats a verify-overhead sweep as a table.
func RenderIntegrityOverhead(rows []IntegrityOverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checksum verify overhead by access mode:\n")
	fmt.Fprintf(&b, "  %-10s %-6s %6s %12s %12s %9s %12s %12s\n",
		"mode", "op", "ops", "base mean", "verified", "overhead", "base wall", "ver wall")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %-6s %6d %12s %12s %8.1f%% %12s %12s\n",
			r.Mode, r.Op, r.Ops, fmtT(r.BaseMean), fmtT(r.Verified),
			100*r.Overhead(), fmtT(r.BaseWall), fmtT(r.VerWall))
	}
	return b.String()
}

// CorruptionSweepRow is one (application, corruption class) cell of the
// detection-coverage sweep.
type CorruptionSweepRow struct {
	App          string
	Class        integrity.Class
	Injected     int
	Detected     int
	Repaired     int // parity + rewrite
	Unrepairable int // detected, reported open on the incident timeline
	Latent       int // neither detected nor resolved — must be zero
}

// RenderCorruptionSweep formats the detection-coverage sweep as a table.
func RenderCorruptionSweep(rows []CorruptionSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Corruption detection sweep:\n")
	fmt.Fprintf(&b, "  %-8s %-18s %9s %9s %9s %13s %7s\n",
		"app", "class", "injected", "detected", "repaired", "unrepairable", "latent")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %-18s %9d %9d %9d %13d %7d\n",
			r.App, r.Class, r.Injected, r.Detected, r.Repaired, r.Unrepairable, r.Latent)
	}
	return b.String()
}

// fmtT formats a simulated duration in seconds, as the analysis package's
// report sections do.
func fmtT(t sim.Time) string { return fmt.Sprintf("%.3fs", float64(t)/float64(sim.Second)) }

func TestCorruptionSweepDetectsEverything(t *testing.T) {
	rows, err := CorruptionSweep(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 3 apps x 3 classes", len(rows))
	}
	perClass := map[integrity.Class]int{}
	for _, r := range rows {
		if r.Latent != 0 {
			t.Errorf("%s/%s: %d corruptions neither detected nor resolved", r.App, r.Class, r.Latent)
		}
		if r.Detected+r.Repaired < r.Injected {
			t.Errorf("%s/%s: injected %d > detected %d + repaired %d",
				r.App, r.Class, r.Injected, r.Detected, r.Repaired)
		}
		perClass[r.Class] += r.Injected
	}
	for _, c := range []integrity.Class{integrity.BitRot, integrity.TornWrite, integrity.Misdirected} {
		if perClass[c] == 0 {
			t.Errorf("sweep injected no %s anywhere — the class's detection path is unexercised", c)
		}
	}
}

func TestCorruptionSweepDeterministic(t *testing.T) {
	a, errA := CorruptionSweep(11)
	b, errB := CorruptionSweep(11)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed sweeps differ:\n%+v\n%+v", a, b)
	}
}

func TestModeIntegritySweepOverhead(t *testing.T) {
	rows, err := ModeIntegritySweep(integrity.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want all six access modes", len(rows))
	}
	anyOverhead := false
	for _, r := range rows {
		if r.Ops == 0 {
			t.Errorf("%s: no operations measured", r.Mode)
		}
		if r.Verified < r.BaseMean {
			t.Errorf("%s: verified mean %v below base %v — checksums cannot speed I/O up",
				r.Mode, r.Verified, r.BaseMean)
		}
		if r.Overhead() > 0 {
			anyOverhead = true
		}
	}
	if !anyOverhead {
		t.Error("no mode shows verify overhead; the cost model is not wired in")
	}
}

// Single-attempt corruption run: the integrity report must account for every
// injection, and the incident timeline must carry one entry per corruption.
func TestRunCorruptionReportAndIncidents(t *testing.T) {
	s := SmallStudy(ESCAT)
	s.Machine.PFS.Integrity = integrity.Config{
		Enabled: true,
		Scrub:   integrity.ScrubConfig{Enabled: true, RateBytesPerS: 16 << 20, Window: 30 * sim.Second},
	}
	s.Faults.Corruption = fault.CorruptionPlan{
		BitRotPerGBHour: 2e5, End: 30 * sim.Second,
		TornWriteProb: 0.02, MisdirectProb: 0.02,
	}
	s.FaultSeed = 5
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Integrity == nil {
		t.Fatal("no integrity report")
	}
	tot := r.Integrity.Total
	if tot.Injected == 0 {
		t.Fatal("corruption plan injected nothing")
	}
	if silent := tot.Silent(); silent != 0 {
		t.Errorf("%d corruptions left silent after the end-of-run audit", silent)
	}
	corrInc := 0
	for _, inc := range r.Incidents {
		switch inc.Kind {
		case fault.BitRot, fault.TornWrite, fault.MisdirectedWrite:
			corrInc++
		}
	}
	if corrInc != int(tot.Injected) {
		t.Errorf("incident timeline has %d corruption entries, want %d (one per injection)",
			corrInc, tot.Injected)
	}
	if r.Wall >= 30*sim.Second {
		t.Errorf("wall %v not capped at the application's finish", r.Wall)
	}
}

// Reliability layer under a node outage: deadlines and seeded retry jitter
// stay deterministic.
func TestRunReliabilityDeterministic(t *testing.T) {
	mk := func() Study {
		s := SmallStudy(ESCAT)
		s.Machine.PFS.Reliability = pfs.DefaultReliabilityConfig()
		s.Faults = fault.Plan{Events: []fault.Event{{
			Kind: fault.IONodeOutage, At: 2 * sim.Second, Node: 3,
			Duration: 300 * sim.Millisecond,
		}}}
		s.FaultSeed = 3
		return s
	}
	a, errA := Run(mk())
	b, errB := Run(mk())
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}
	if a.Wall != b.Wall {
		t.Errorf("walls differ: %v vs %v", a.Wall, b.Wall)
	}
	if a.Integrity == nil || b.Integrity == nil {
		t.Fatal("reliability stats not surfaced")
	}
	if !reflect.DeepEqual(a.Integrity.Reliability, b.Integrity.Reliability) {
		t.Errorf("reliability counters differ:\n%+v\n%+v",
			a.Integrity.Reliability, b.Integrity.Reliability)
	}
	if a.Integrity.Reliability.Requests == 0 {
		t.Error("no requests counted by the reliability layer")
	}
}

// fallbackStudy kills ESCAT after two checkpoint commits (units 2 and 4), so
// a restart normally resumes from unit 4 off generation file .1.
func fallbackStudy() ResilientStudy {
	s := SmallStudy(ESCAT)
	s.Machine.PFS.Integrity = integrity.Config{Enabled: true}
	s.Faults = fault.Plan{Cascades: []fault.Cascade{{
		Kind: fault.IONodeOutage, At: 5900 * sim.Millisecond,
		Nodes: 16, FirstNode: 0, Spacing: 0, Duration: 1200 * sim.Millisecond,
	}}}
	s.FaultSeed = 7
	return ResilientStudy{
		Study:       s,
		Ckpt:        ckpt.Config{Interval: 2, BytesPerNode: 4096, FileName: "escat.ckpt"},
		RestartCost: 1500 * sim.Millisecond,
	}
}

// corruptNewestCkpt is the preVerify seam: it marks the newest committed
// checkpoint generation's first block corrupt before restart verification.
func corruptNewestCkpt(t *testing.T) func(int, *ckpt.Coordinator, *pfs.FileSystem) {
	return func(attempt int, coord *ckpt.Coordinator, fs *pfs.FileSystem) {
		if attempt != 1 {
			return
		}
		// Commits alternate starting at generation 1, so after k commits the
		// newest valid generation is k%2.
		newest := coord.Stats().Checkpoints % 2
		name := fmt.Sprintf("escat.ckpt.%d", newest)
		n := fs.InjectCorruption([]pfs.CorruptRange{{
			File: name, Offset: 0, Bytes: 1, Class: integrity.TornWrite,
		}})
		if n != 1 {
			t.Fatalf("corrupting %s: %d ranges applied, want 1", name, n)
		}
	}
}

// Satellite: a corrupted newest checkpoint is rejected at restart, the run
// falls back to the previous valid generation and completes — byte-
// identically to a reference run that resumed from that same generation.
func TestResilientCkptFallbackOnCorruptCheckpoint(t *testing.T) {
	rs := fallbackStudy()
	rs.preVerify = corruptNewestCkpt(t)
	rr, err := RunResilient(rs)
	if err != nil {
		t.Fatalf("RunResilient: %v", err)
	}
	if rr.Final == nil {
		t.Fatal("no final report")
	}
	if len(rr.Attempts) != 2 {
		t.Fatalf("attempts = %+v", rr.Attempts)
	}
	if got := rr.Attempts[1].ResumeUnit; got != 2 {
		t.Errorf("resumed from unit %d, want 2 (fallback to the older generation)", got)
	}
	if rr.Ckpt.VerifyRejects != 1 || rr.Ckpt.Fallbacks != 1 {
		t.Errorf("verify rejects/fallbacks = %d/%d, want 1/1",
			rr.Ckpt.VerifyRejects, rr.Ckpt.Fallbacks)
	}
	if rr.Final.Integrity == nil {
		t.Fatal("no integrity report on final attempt")
	}
	if rr.Final.Integrity.CkptVerifyRejects != 1 || rr.Final.Integrity.CkptFallbacks != 1 {
		t.Errorf("integrity report ckpt verify = %d/%d, want 1/1",
			rr.Final.Integrity.CkptVerifyRejects, rr.Final.Integrity.CkptFallbacks)
	}

	// Without the corruption the same study resumes from unit 4.
	clean, err := RunResilient(fallbackStudy())
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.Attempts[1].ResumeUnit; got != 4 {
		t.Errorf("clean run resumed from unit %d, want 4", got)
	}
	if clean.Ckpt.VerifyRejects != 0 || clean.Ckpt.Fallbacks != 0 {
		t.Errorf("clean run verify stats: %+v", clean.Ckpt)
	}

	// Reference: a run whose failure landed after only one commit resumes
	// from unit 2 legitimately. Its final attempt must be byte-identical to
	// the fallback run's final attempt — same resume unit, same restore,
	// same traced operations on each attempt-local clock.
	ref := fallbackStudy()
	ref.Study.Faults = fault.Plan{Cascades: []fault.Cascade{{
		Kind: fault.IONodeOutage, At: 4200 * sim.Millisecond,
		Nodes: 16, FirstNode: 0, Spacing: 0, Duration: 1200 * sim.Millisecond,
	}}}
	refRR, err := RunResilient(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := refRR.Attempts[1].ResumeUnit; got != 2 {
		t.Fatalf("reference resumed from unit %d, want 2", got)
	}
	if !reflect.DeepEqual(rr.Final.Events, refRR.Final.Events) {
		t.Error("fallback run's final attempt trace differs from the unit-2 reference")
	}
	if !reflect.DeepEqual(rr.Final.Summary, refRR.Final.Summary) {
		t.Errorf("fallback summary differs from reference:\n%+v\n%+v",
			rr.Final.Summary, refRR.Final.Summary)
	}

	// Determinism: the corrupted run replays byte-identically.
	rs2 := fallbackStudy()
	rs2.preVerify = corruptNewestCkpt(t)
	again, err := RunResilient(rs2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Attempts, again.Attempts) ||
		!reflect.DeepEqual(rr.Incidents, again.Incidents) ||
		!reflect.DeepEqual(rr.Final.Events, again.Final.Events) {
		t.Error("same-seed corrupted runs differ")
	}
}

// A failed attempt's storage is abandoned at its failure: bit-rot the dead
// engine's drivers realize afterwards, and the scrubber's repairs of it,
// never happened to the run. No incident of a failed attempt may start (or
// run) past that attempt's end. The long restart cost leaves the dead
// attempt's post-failure minute in the gap before the next attempt, where
// nothing can legitimately start.
func TestFailedAttemptIncidentsEndAtFailure(t *testing.T) {
	rs := chaosStudy()
	rs.RestartCost = 1000 * sim.Second
	rs.Study.Machine.PFS.Integrity = integrity.Config{
		Enabled: true,
		Scrub:   integrity.ScrubConfig{Enabled: true, RateBytesPerS: 16 << 20, Window: 60 * sim.Second},
	}
	rs.Study.Faults.Corruption = fault.CorruptionPlan{BitRotPerGBHour: 5e7, End: 60 * sim.Second}
	rr, err := RunResilient(rs)
	if err != nil {
		t.Fatal(err)
	}
	last := len(rr.Attempts) - 1
	if last < 1 || !rr.Attempts[0].Failed {
		t.Fatalf("attempts %+v, want a failure then a restart", rr.Attempts)
	}
	corruption := 0
	for _, inc := range rr.Incidents {
		if inc.Start >= rr.Attempts[last].Start {
			continue // the final attempt's own timeline
		}
		if inc.Kind == fault.BitRot {
			corruption++
		}
		owned := false
		for _, a := range rr.Attempts[:last] {
			if inc.Start >= a.Start && inc.Start <= a.End {
				owned = true
				if inc.End > a.End {
					t.Errorf("%s incident %v–%v runs past its attempt's failure at %v", inc.Kind, inc.Start, inc.End, a.End)
				}
			}
		}
		if !owned {
			t.Errorf("%s incident at %v (%s) starts after its failed attempt ended", inc.Kind, inc.Start, inc.Note)
		}
	}
	if corruption == 0 {
		t.Error("the failed attempt realized no bit-rot before it died; the check saw nothing")
	}
}

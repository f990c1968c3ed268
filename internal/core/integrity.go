package core

import (
	"fmt"

	"repro/internal/analysis"
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

// CorruptionSweep runs each application under each corruption class with the
// integrity layer (and scrubber) enabled, and tallies detection coverage from
// the corruption event log. The invariant the robustness work claims — no
// injected error stays both undetected and unresolved — shows up as a zero
// Latent column: every corruption is either detected (by a read, the
// scrubber, or the end-of-run audit) or healed by a later full rewrite of its
// block. The sweep is deterministic: same seed, same rows.
func CorruptionSweep(small bool, seed uint64) ([]analysis.CorruptionSweepRow, error) {
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
	return exec.Map(cells, func(_ int, c cell) (analysis.CorruptionSweepRow, error) {
		study := sweepStudy(c.app, small)
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
			return analysis.CorruptionSweepRow{}, fmt.Errorf("corruption sweep: %s/%s: %w", c.app, c.class, err)
		}
		row := analysis.CorruptionSweepRow{App: string(c.app), Class: c.class}
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
func ModeIntegritySweep(icfg integrity.Config) ([]analysis.IntegrityOverheadRow, error) {
	icfg.Enabled = true
	base := pfs.DefaultConfig()
	verCfg := base
	verCfg.Integrity = icfg

	cells := modeCells()
	pairs, err := runPairs("integrity sweep", [2]string{"base", "verified"}, cells, runModes(base, verCfg))
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.IntegrityOverheadRow, 0, len(cells))
	for i, cell := range cells {
		b, v := pairs[i][0], pairs[i][1]
		bm, n := meanFor(b.Summary, cell.labels...)
		vm, _ := meanFor(v.Summary, cell.labels...)
		rows = append(rows, analysis.IntegrityOverheadRow{
			Mode: cell.name, Op: cell.op, Ops: n,
			BaseMean: bm, Verified: vm,
			BaseWall: b.Wall, VerWall: v.Wall,
		})
	}
	return rows, nil
}

package core

import (
	"repro/internal/analysis"
	"repro/internal/collective"
	"repro/internal/ionode"
	"repro/internal/pfs"
)

// collCompare builds one comparison row from a baseline/collective report
// pair.
func collCompare(name string, sched ionode.SchedConfig, base, coll *Report) analysis.CollectiveComparison {
	row := analysis.CollectiveComparison{
		Name:     name,
		Sched:    sched.Policy,
		BaseWall: base.Wall, CollWall: coll.Wall,
		BasePhys: base.PhysRequests, CollPhys: coll.PhysRequests,
	}
	if coll.Collective != nil {
		row.Stats = *coll.Collective
	}
	return row
}

// CollectiveSweep runs each of the paper's three applications twice —
// collective I/O off, then on with ccfg and the given disk scheduler — and
// reports the physical-request collapse and makespan change. ESCAT's
// M_RECORD reload is the paper workload two-phase aggregation serves; RENDER
// and HTF move their data through M_UNIX and are honest controls (their
// request streams never meet a round barrier, so aggregation must not hurt
// them).
func CollectiveSweep(small bool, ccfg collective.Config, sched ionode.SchedConfig) ([]analysis.CollectiveComparison, error) {
	ccfg.Enabled = true
	apps := Apps()
	pairs, err := runPairs("collective sweep", [2]string{"base", "collective"}, apps,
		func(app AppID, coll bool) (*Report, error) {
			study := sweepStudy(app, small)
			if coll {
				study.Machine.PFS.Collective = ccfg
				study.Machine.PFS.Sched = sched
			}
			return Run(study)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.CollectiveComparison, 0, len(apps))
	for i, app := range apps {
		rows = append(rows, collCompare(string(app), sched, pairs[i][0], pairs[i][1]))
	}
	return rows, nil
}

// ModeCollectiveSweep compares collective-on against collective-off runs of
// one synthetic workload (eight nodes moving fixed records through a shared
// file, phase-aligned by a barrier) under all six PFS access modes. Only the
// round-structured modes (M_RECORD, M_SYNC) have rounds to aggregate; the
// other four are controls that must pass through unchanged.
func ModeCollectiveSweep(ccfg collective.Config, sched ionode.SchedConfig) ([]analysis.CollectiveComparison, error) {
	ccfg.Enabled = true
	base := pfs.DefaultConfig()
	collCfg := base
	collCfg.Collective = ccfg
	collCfg.Sched = sched

	cells := modeCells()
	for i := range cells {
		// Phase-align the nodes so rounds actually meet at the barrier; the
		// baseline runs the identical workload, so the comparison isolates
		// the PFS configuration.
		cells[i].scfg.Barrier = true
	}
	pairs, err := runPairs("collective mode sweep", [2]string{"base", "collective"}, cells, runModes(base, collCfg))
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.CollectiveComparison, 0, len(cells))
	for i, cell := range cells {
		rows = append(rows, collCompare(cell.name, sched, pairs[i][0], pairs[i][1]))
	}
	return rows, nil
}

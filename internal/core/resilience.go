package core

import (
	"repro/internal/analysis"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/pfs"
)

// Resilience reduces a single-attempt report to the analysis-layer
// resilience summary (exposure, per-fault latency impact, failover counters).
func (r *Report) Resilience() analysis.ResilienceReport {
	return analysis.ResilienceReport{
		Wall:              r.Wall,
		Attempts:          1,
		Exposure:          analysis.Exposures(r.Incidents),
		Impacts:           analysis.FaultImpacts(r.Events, r.Incidents),
		Timeouts:          r.Failover.Timeouts,
		Retries:           r.Failover.Retries,
		Reroutes:          r.Failover.Reroutes,
		MirrorWrites:      r.Failover.MirrorWrites,
		FailedOps:         r.Failover.Failed,
		BackoffTime:       r.Failover.BackoffTime,
		ReplicationFactor: r.ReplicationFactor,
		Repair:            repairSummary(r.Repair.Capped(r.Wall), r.Incidents, r.RepairEnabled()),
	}
}

// RepairEnabled reports whether the repair control plane ran during the
// study (the stats carry no explicit flag; a sweep only spawns with work,
// so the authoritative signal is recorded at report time).
func (r *Report) RepairEnabled() bool { return r.repairOn }

// repairSummary maps the PFS repair counters into the analysis layer's
// availability summary. The outage count comes from the (already capped)
// incident timeline rather than the raw hook counter so that fault windows
// past the app's completion don't inflate the durability line.
func repairSummary(s pfs.RepairStats, incs []fault.Incident, enabled bool) analysis.RepairSummary {
	var outages int64
	for _, inc := range incs {
		if inc.Kind == fault.IONodeOutage {
			outages++
		}
	}
	return analysis.RepairSummary{
		Enabled:               enabled,
		Outages:               outages,
		SloppyWrites:          s.SloppyWrites,
		MirrorMisses:          s.MirrorMisses,
		LedgerPuts:            s.LedgerPuts,
		LedgerPeak:            s.LedgerPeak,
		Backlog:               s.LedgerPuts - s.LedgerDrains,
		ChunksRepaired:        s.ChunksRepaired,
		BytesRepaired:         s.BytesRepaired,
		Abandoned:             s.Abandoned,
		ThrottleTime:          s.ThrottleTime,
		TimeToFullRedundancy:  s.TimeToFullRedundancy(),
		WindowOfVulnerability: s.WindowOfVulnerability(),
	}
}

// Resilience reduces the resilient run to the analysis-layer summary. The
// per-fault latency impact, failover and repair figures cover the successful
// attempt (the one whose full trace survives, with its own incident
// timeline); exposure spans the whole timeline.
func (rr *ResilientReport) Resilience() analysis.ResilienceReport {
	var out analysis.ResilienceReport
	if rr.Final != nil {
		out = rr.Final.Resilience()
	}
	out.Wall = rr.Wall
	out.Attempts = len(rr.Attempts)
	out.LostWork = rr.LostWork
	out.Checkpoints = rr.Ckpt.Checkpoints
	out.CkptOverhead = rr.Ckpt.Overhead
	out.Restores = rr.Ckpt.Restores
	out.RestoreTime = rr.Ckpt.RestoreTime
	out.Exposure = analysis.Exposures(rr.Incidents)
	for _, a := range rr.Attempts {
		if a.Failed {
			out.Failures++
		}
	}
	return out
}

// TradeoffSweep reruns the resilient study once per checkpoint interval
// (0 meaning no checkpoints) and collects the overhead-versus-lost-work
// curve. Every run replays the same materialized fault schedule.
func TradeoffSweep(rs ResilientStudy, intervals []int) ([]analysis.TradeoffPoint, error) {
	return exec.Map(intervals, func(_ int, iv int) (analysis.TradeoffPoint, error) {
		r := rs
		r.Ckpt.Interval = iv
		rr, err := RunResilient(r)
		if err != nil {
			return analysis.TradeoffPoint{}, err
		}
		return analysis.TradeoffPoint{
			Interval:    iv,
			Checkpoints: rr.Ckpt.Checkpoints,
			Overhead:    rr.Ckpt.Overhead,
			LostWork:    rr.LostWork,
			Wall:        rr.Wall,
		}, nil
	})
}

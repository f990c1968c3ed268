package core

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// ResilientStudy describes a chaos run with checkpoint/restart: the study's
// fault plan is injected, and when a fault kills the application the machine
// is rebuilt and the application restarted from its last committed
// checkpoint, with the remaining fault schedule carried over.
type ResilientStudy struct {
	Study

	// Ckpt is the checkpoint policy. Interval <= 0 runs without
	// checkpoints: every restart redoes the run from the beginning.
	Ckpt ckpt.Config

	// MaxAttempts bounds the restart loop (default 8).
	MaxAttempts int

	// RestartCost is the fixed wall-clock charge per restart (requeue,
	// relaunch, reload of the executable).
	RestartCost sim.Time

	// preVerify, when set, runs between carried-corruption re-injection and
	// checkpoint restart verification — a test seam for corrupting specific
	// files (e.g. the newest checkpoint generation) deterministically.
	preVerify func(attempt int, coord *ckpt.Coordinator, fs *pfs.FileSystem)
}

// Attempt is one execution attempt's outcome, in absolute time (restart
// costs included in the gaps between attempts).
type Attempt struct {
	Start, End sim.Time
	ResumeUnit int    // work unit the attempt started from
	Failed     bool   // attempt died to a fault
	Err        string // first node failure (empty on success)
}

// Wall returns the attempt's duration.
func (a Attempt) Wall() sim.Time { return a.End - a.Start }

// ResilientReport is the outcome of a resilient run.
type ResilientReport struct {
	// Final is the successful attempt's full report (attempt-local times).
	Final *Report

	Attempts  []Attempt
	Incidents []fault.Incident // realized faults across attempts, absolute times
	Ckpt      ckpt.Stats
	LostWork  sim.Time // computed work discarded by failures
	Wall      sim.Time // absolute completion time including restarts

	// BurstLostBytes counts burst-log bytes that died undrained with failed
	// attempts — committed by the application but never persisted to the PFS.
	BurstLostBytes int64
}

// RunResilient executes the study under its fault plan with restart-from-
// checkpoint semantics. Determinism: the fault schedule is materialized once
// from (Faults, FaultSeed) and each attempt replays its still-relevant
// remainder, so the same study and seed produce the same attempt history.
func RunResilient(rs ResilientStudy) (*ResilientReport, error) {
	s := rs.Study
	if s.App == nil {
		return nil, errNoApp
	}
	app, err := s.App.New()
	if err != nil {
		return nil, err
	}
	// The driver measures attempt completion from the trace.
	s.KeepTrace = true
	if rs.MaxAttempts <= 0 {
		rs.MaxAttempts = 8
	}

	var coord *ckpt.Coordinator
	if rs.Ckpt.Interval > 0 {
		coord, err = ckpt.New(rs.Ckpt, s.App.ComputeNodes())
		if err != nil {
			return nil, err
		}
		var ok bool
		if s.App, ok = s.App.WithCkpt(coord); !ok {
			return nil, fmt.Errorf("core: %s does not support checkpointing", app.Name())
		}
	}

	events := planEvents(s)

	rr := &ResilientReport{}
	base := sim.Time(0)
	// carried is the corruption ledger harvested from each dying attempt's
	// storage: latent corruption does not go away because the application
	// restarted, so it is re-injected into the fresh instance.
	var carried []pfs.CorruptRange
	// A restart reissues the coroutines its failed attempt parked.
	var pool sim.Pool
	defer pool.Close()
	for attempt := 0; attempt < rs.MaxAttempts; attempt++ {
		s, rt, err := prepare(s, &pool)
		if err != nil {
			return nil, err
		}
		if coord != nil {
			if err := coord.Prepare(rt.m, rt.fs, base); err != nil {
				return nil, err
			}
			if rt.burst != nil {
				// Route checkpoint files through the burst tier regardless
				// of the I/O mode the checkpointer opens them with.
				rt.burst.InterceptPrefix(coord.FileBase())
			}
		}
		rt.m.PFS.InjectCorruption(carried)
		if coord != nil {
			if rs.preVerify != nil {
				rs.preVerify(attempt, coord, rt.m.PFS)
			}
			// Reject checkpoint generations whose storage holds latent
			// corruption before the application restores from them.
			coord.VerifyRestart(rt.m.PFS)
		}
		resume := 0
		if coord != nil {
			resume = coord.ResumeUnit()
		}
		rt.arm(s, fault.ShiftForRestart(events, base), 0)
		runErr := rt.run(0)
		nodeLoss, nodeErr := rt.failure()
		if nodeErr == nil && nodeLoss != nil {
			// The loss froze the engine before any node program could
			// observe an error; the attempt is dead anyway.
			nodeErr = fmt.Errorf("compute node %d lost at %v", nodeLoss.Node, nodeLoss.At)
		}
		if nodeErr == nil && runErr != nil {
			// Not an application death from a fault: a real failure.
			return nil, runErr
		}

		if nodeErr == nil {
			// The attempt's clock is the application's own finish (see
			// finishReport): restarts are measured from it.
			r := finishReport(s, rt)
			rr.Final = r
			rr.addIncidents(r.Incidents, base)
			rr.Attempts = append(rr.Attempts, Attempt{
				Start: base, End: base + r.Wall, ResumeUnit: resume,
			})
			rr.Wall = base + r.Wall
			if coord != nil {
				rr.Ckpt = coord.Stats()
				if r.Integrity != nil {
					r.Integrity.CkptVerifyRejects = rr.Ckpt.VerifyRejects
					r.Integrity.CkptFallbacks = rr.Ckpt.Fallbacks
				}
			}
			rr.sortIncidents()
			return rr, nil
		}

		// The attempt died, and the failure halted its engine (see
		// workload.NodeErrors and fault.NodeLossHooks): the clock is the
		// failure instant, and the injector's timeline and the integrity
		// ledger stand as they were then. Everything after the last
		// committed checkpoint is lost work.
		if !rt.m.Eng.Stopped() {
			return nil, fmt.Errorf("core: %s failed without halting its engine: %w", app.Name(), nodeErr)
		}
		failedAt := rt.m.Eng.Now()
		if rt.inj != nil {
			rt.inj.CloseOpen(failedAt)
			rr.addIncidents(rt.inj.Incidents(), base)
		}
		rr.addIncidents(fault.AbandonedCorruptionIncidents(rt.m.PFS.IntegrityEvents(), failedAt), base)
		// Harvest the dying storage's corruption ledger for the next attempt.
		carried = rt.m.PFS.HarvestCorruption()
		if rt.burst != nil {
			// Undrained log content dies with the attempt: it was committed
			// to volatile node memory, never to the PFS. Checkpoint
			// generations with pending records are not restartable.
			und := rt.burst.UndrainedFiles()
			for _, b := range und {
				rr.BurstLostBytes += b
			}
			if coord != nil {
				coord.RejectUndrained(und)
			}
		}
		lostFrom := base
		if coord != nil && coord.Have() && coord.LastCommitAt() > base {
			lostFrom = coord.LastCommitAt()
		}
		rr.LostWork += base + failedAt - lostFrom
		rr.Attempts = append(rr.Attempts, Attempt{
			Start: base, End: base + failedAt, ResumeUnit: resume,
			Failed: true, Err: nodeErr.Error(),
		})
		base += failedAt + rs.RestartCost
	}
	if coord != nil {
		rr.Ckpt = coord.Stats()
	}
	rr.sortIncidents()
	return rr, fmt.Errorf("core: %s did not complete within %d attempts (%d failures)",
		app.Name(), rs.MaxAttempts, len(rr.Attempts))
}

// sortIncidents restores global start-time order after per-attempt merges.
func (rr *ResilientReport) sortIncidents() {
	sort.SliceStable(rr.Incidents, func(i, j int) bool {
		return rr.Incidents[i].Start < rr.Incidents[j].Start
	})
}

// addIncidents rebases one attempt's incident timeline to absolute time.
func (rr *ResilientReport) addIncidents(incs []fault.Incident, base sim.Time) {
	for _, inc := range incs {
		inc.Start += base
		inc.End += base
		rr.Incidents = append(rr.Incidents, inc)
	}
}

package ckpt

import (
	"testing"

	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newTestMachine(t *testing.T, nodes int) (*workload.Machine, workload.PFS) {
	t.Helper()
	m, err := workload.NewMachine(workload.MachineConfig{
		ComputeNodes: nodes,
		PFS:          pfs.DefaultConfig(),
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m, workload.WrapPFS(m.PFS)
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}, 0); err == nil {
		t.Fatal("New accepted 0 nodes")
	}
	if _, err := New(Config{BytesPerNode: -1}, 2); err == nil {
		t.Fatal("New accepted a negative slice size")
	}
	c, err := New(Config{Interval: 1}, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.cfg.FileName != "app.ckpt" {
		t.Fatalf("default FileName = %q, want app.ckpt", c.cfg.FileName)
	}
}

// runUnits drives nodes work units 0..units-1 through the coordinator on a
// fresh machine and returns the first error any node hit.
func runUnits(t *testing.T, c *Coordinator, nodes, units int, base sim.Time) (*workload.Machine, error) {
	t.Helper()
	m, fs := newTestMachine(t, nodes)
	if err := c.Prepare(m, fs, base); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	var firstErr error
	for n := 0; n < nodes; n++ {
		node := n
		m.Eng.Spawn("app", func(p *sim.Process) {
			if err := c.Restore(p, fs, node); err != nil && firstErr == nil {
				firstErr = err
				return
			}
			for unit := c.ResumeUnit(); unit < units; unit++ {
				p.Sleep(sim.FromSeconds(0.001)) // the "work"
				if err := c.AfterUnit(p, fs, node, unit); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return m, firstErr
}

func TestCommitSemantics(t *testing.T) {
	c, err := New(Config{Interval: 2, BytesPerNode: 1024}, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Have() {
		t.Fatal("fresh coordinator claims a committed checkpoint")
	}
	if _, err := runUnits(t, c, 2, 5, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := c.Stats()
	// Units 0..4 with interval 2 checkpoint after units 1 and 3; unit 4 is
	// uncovered.
	if st.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want 2", st.Checkpoints)
	}
	if st.CommittedUnit != 4 || c.ResumeUnit() != 4 {
		t.Fatalf("CommittedUnit = %d, ResumeUnit = %d, want 4", st.CommittedUnit, c.ResumeUnit())
	}
	if !c.Have() {
		t.Fatal("Have() = false after commits")
	}
	if st.LastCommitAt <= 0 || c.LastCommitAt() != st.LastCommitAt {
		t.Fatalf("LastCommitAt = %v (stats %v)", c.LastCommitAt(), st.LastCommitAt)
	}
	if st.Overhead <= 0 {
		t.Fatalf("Overhead = %v, want > 0", st.Overhead)
	}
	if st.Restores != 0 {
		t.Fatalf("Restores = %d on a first attempt, want 0", st.Restores)
	}
}

func TestDisabledIntervalIsNoOp(t *testing.T) {
	c, err := New(Config{Interval: 0, BytesPerNode: 1024}, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := runUnits(t, c, 2, 4, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("disabled coordinator accumulated stats: %+v", st)
	}
	if c.Have() || c.ResumeUnit() != 0 {
		t.Fatalf("disabled coordinator committed: have=%v unit=%d", c.Have(), c.ResumeUnit())
	}
}

func TestRestartRestoresFromCommit(t *testing.T) {
	const nodes = 2
	c, err := New(Config{Interval: 2, BytesPerNode: 2048}, nodes)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// First attempt covers units 0..3 (commits after 1 and 3).
	if _, err := runUnits(t, c, nodes, 4, 0); err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	commit := c.LastCommitAt()
	if c.ResumeUnit() != 4 {
		t.Fatalf("ResumeUnit = %d after attempt 1, want 4", c.ResumeUnit())
	}

	// Second attempt on a rebuilt machine: each node restores, then runs the
	// remaining units 4..5.
	base := sim.FromSeconds(10)
	if _, err := runUnits(t, c, nodes, 6, base); err != nil {
		t.Fatalf("attempt 2: %v", err)
	}
	st := c.Stats()
	if st.Restores != nodes {
		t.Fatalf("Restores = %d, want %d", st.Restores, nodes)
	}
	if st.RestoreTime <= 0 {
		t.Fatalf("RestoreTime = %v, want > 0", st.RestoreTime)
	}
	if st.CommittedUnit != 6 {
		t.Fatalf("CommittedUnit = %d after attempt 2, want 6", st.CommittedUnit)
	}
	// The new commit is stamped in absolute time: past the attempt's base,
	// and strictly after the first attempt's commit.
	if c.LastCommitAt() <= base || c.LastCommitAt() <= commit {
		t.Fatalf("LastCommitAt = %v, want > base %v and > %v", c.LastCommitAt(), base, commit)
	}
	if st.Checkpoints != 3 {
		t.Fatalf("Checkpoints = %d across attempts, want 3", st.Checkpoints)
	}
}

func TestRestoreWithoutCommitIsNoOp(t *testing.T) {
	c, err := New(Config{Interval: 2, BytesPerNode: 1024}, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, fs := newTestMachine(t, 1)
	if err := c.Prepare(m, fs, 0); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	var rerr error
	m.Eng.Spawn("restore", func(p *sim.Process) {
		rerr = c.Restore(p, fs, 0)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if rerr != nil {
		t.Fatalf("Restore: %v", rerr)
	}
	if st := c.Stats(); st.Restores != 0 || st.RestoreTime != 0 {
		t.Fatalf("no-commit restore did I/O: %+v", st)
	}
}

func TestCheckpointPhaseLabel(t *testing.T) {
	c, err := New(Config{Interval: 1, BytesPerNode: 512}, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, fs := newTestMachine(t, 1)
	tr := pablo.NewTracer(true)
	m.PFS.SetRecorder(tr)
	if err := c.Prepare(m, fs, 0); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	fs.SetPhase(iotrace.PhasePscf)
	m.Eng.Spawn("app", func(p *sim.Process) {
		if err := c.AfterUnit(p, fs, 0, 0); err != nil {
			t.Errorf("AfterUnit: %v", err)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if got := fs.Phase(); got != iotrace.PhasePscf {
		t.Fatalf("phase after checkpoint round = %q, want restored %q", got, iotrace.PhasePscf)
	}
	var tagged int
	for _, e := range tr.Events() {
		if e.Phase == PhaseCheckpoint {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("no trace events tagged with the checkpoint phase")
	}
}

// TestRejectUndrainedFallsBack: a generation whose file still held undrained
// burst-log records at the crash is incomplete on the PFS — the restart must
// fall back to the older generation, and to a cold start when both are
// pending.
func TestRejectUndrainedFallsBack(t *testing.T) {
	c, err := New(Config{Interval: 1, BytesPerNode: 1024}, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Units 0..2 with interval 1 commit three times: generations alternate,
	// newest covers unit 3, the surviving older one unit 2.
	if _, err := runUnits(t, c, 2, 3, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if c.ResumeUnit() != 3 {
		t.Fatalf("ResumeUnit = %d, want 3", c.ResumeUnit())
	}
	newest := c.fileOf(c.cur)

	// Newest generation partially drained at the crash: reject it, resume
	// from the older one.
	c.RejectUndrained(map[string]int64{newest: 4096})
	st := c.Stats()
	if st.DrainRejects != 1 || st.Fallbacks != 1 {
		t.Fatalf("DrainRejects = %d Fallbacks = %d, want 1/1", st.DrainRejects, st.Fallbacks)
	}
	if c.ResumeUnit() != 2 {
		t.Fatalf("ResumeUnit = %d after fallback, want 2", c.ResumeUnit())
	}
	if !c.Have() {
		t.Fatal("older generation lost in fallback")
	}

	// A fully drained ledger rejects nothing.
	c.RejectUndrained(map[string]int64{})
	if got := c.Stats().DrainRejects; got != 1 {
		t.Fatalf("clean ledger bumped DrainRejects to %d", got)
	}

	// Both generations pending: cold start.
	c.RejectUndrained(map[string]int64{c.fileOf(0): 1, c.fileOf(1): 1})
	if c.Have() || c.ResumeUnit() != 0 {
		t.Fatalf("both-pending reject left have=%v resume=%d", c.Have(), c.ResumeUnit())
	}
	if got := c.Stats().DrainRejects; got != 2 {
		t.Fatalf("DrainRejects = %d after cold-start reject, want 2", got)
	}
}

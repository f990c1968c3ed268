// Package ckpt implements coordinated checkpoint/restart for the application
// skeletons — the defensive-I/O pattern of §2's purpose taxonomy, here used
// to carry runs across injected faults. An application structured as numbered
// work units calls the Coordinator at each unit boundary; on checkpoint units
// every node rendezvouses, writes its state slice to a shared checkpoint
// file, and the checkpoint commits once all slices are durable. After a fatal
// fault the driver rebuilds the machine and the application resumes from the
// last committed unit, re-reading the checkpoint; work after the commit is
// lost and accounted as such.
//
// The Coordinator persists across machine rebuilds (attempts) — that is the
// point: its committed unit and commit instant survive the crash, everything
// else is rebuilt via Prepare.
package ckpt

import (
	"fmt"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PhaseCheckpoint labels trace events issued inside checkpoint rounds, so the
// analysis side can separate defensive I/O from the application's own.
const PhaseCheckpoint = iotrace.PhaseCheckpoint

// Config parameterizes the checkpoint policy.
type Config struct {
	// Interval checkpoints after every Interval-th work unit (1 = every
	// unit). Zero or negative disables periodic checkpoints — the
	// Coordinator then only tracks units for restart bookkeeping.
	Interval int

	// BytesPerNode is each node's state slice size.
	BytesPerNode int64

	// FileName is the checkpoint file base name (default "app.ckpt").
	// Checkpoints double-buffer across FileName+".0" and FileName+".1",
	// alternating per commit, so a corrupt newest checkpoint still leaves
	// the previous one to restart from.
	FileName string
}

// Stats summarizes the checkpoint subsystem's activity across all attempts.
type Stats struct {
	Checkpoints   int      // committed checkpoints
	CommittedUnit int      // units safely covered by the last commit
	LastCommitAt  sim.Time // absolute instant of the last commit
	Overhead      sim.Time // summed node-time spent inside checkpoint rounds
	RestoreTime   sim.Time // summed node-time re-reading checkpoints on restart
	Restores      int      // node restore reads performed
	VerifyRejects int      // checkpoint generations rejected by restart verification
	DrainRejects  int      // generations rejected for records lost in a volatile burst log
	Fallbacks     int      // restarts that fell back to the older generation
}

// slot is one committed checkpoint generation.
type slot struct {
	unit     int
	commitAt sim.Time // absolute
	have     bool
}

// Coordinator implements workload.Checkpointer. One Coordinator serves one
// logical application run across all its restart attempts.
type Coordinator struct {
	cfg   Config
	nodes int

	// Committed state: survives machine rebuilds. Two generations
	// double-buffer across alternating files; cur indexes the newest valid
	// one, and each commit targets the other slot — so the generation a
	// restart would restore from is never overwritten mid-write, and a
	// rejected generation is the next one recycled.
	slots [2]slot
	cur   int

	// Per-attempt machinery, rebuilt by Prepare.
	base      sim.Time // absolute start of the current attempt
	barrier   *sim.Barrier
	phase     phaseSetter
	prevPhase iotrace.Phase // phase to restore after a checkpoint round
	created   [2]bool       // generation files installed on this attempt's machine

	st Stats
}

type phaseSetter interface {
	SetPhase(iotrace.Phase)
	Phase() iotrace.Phase
}

// New builds a coordinator for an application running on nodes compute nodes.
func New(cfg Config, nodes int) (*Coordinator, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("ckpt: %d nodes", nodes)
	}
	if cfg.BytesPerNode < 0 {
		return nil, fmt.Errorf("ckpt: negative slice size %d", cfg.BytesPerNode)
	}
	if cfg.FileName == "" {
		cfg.FileName = "app.ckpt"
	}
	return &Coordinator{cfg: cfg, nodes: nodes}, nil
}

// fileOf names one checkpoint generation's file.
func (c *Coordinator) fileOf(gen int) string {
	return fmt.Sprintf("%s.%d", c.cfg.FileName, gen)
}

// Prepare arms the coordinator for one attempt on a freshly built machine:
// it installs both checkpoint generation files (at their committed sizes, so
// a restart can re-read them), rebuilds the rendezvous barrier, and rebases
// absolute time. base is the absolute instant the attempt's engine clock
// zero corresponds to.
func (c *Coordinator) Prepare(m *workload.Machine, fs workload.FS, base sim.Time) error {
	// Install the generations that hold committed state (a restart re-reads
	// them) plus the next commit target; an empty generation that is not the
	// next target has no file yet and is created when a commit first reaches
	// it — so a cold start installs exactly one file, like a fresh run would.
	next := 1 - c.cur
	c.created = [2]bool{}
	for gen := range c.slots {
		if !c.slots[gen].have && gen != next {
			continue
		}
		size := int64(0)
		if c.slots[gen].have {
			size = int64(c.nodes) * c.cfg.BytesPerNode
		}
		if _, err := fs.Preload(c.fileOf(gen), size); err != nil {
			return fmt.Errorf("ckpt: %w", err)
		}
		c.created[gen] = true
	}
	c.base = base
	c.barrier = sim.NewBarrier(m.Eng, "ckpt", c.nodes)
	c.phase, _ = fs.(phaseSetter)
	return nil
}

// IntegrityVerifier is the storage capability restart verification needs;
// *pfs.FileSystem implements it when its integrity layer is enabled.
type IntegrityVerifier interface {
	VerifyFile(name, by string) bool
}

// VerifyRestart checks the committed checkpoint generations against the
// storage integrity layer, newest first, before an attempt restores: a
// generation whose file holds latent corruption is rejected and the
// coordinator falls back to the older one (or to a cold start when both are
// bad). Call after Prepare — and after any carried corruption ledger has
// been re-injected. A nil verifier is a no-op.
func (c *Coordinator) VerifyRestart(v IntegrityVerifier) {
	if v == nil {
		return
	}
	for tries := 0; tries < len(c.slots); tries++ {
		if !c.slots[c.cur].have {
			return
		}
		if v.VerifyFile(c.fileOf(c.cur), "restart") {
			return
		}
		c.st.VerifyRejects++
		c.slots[c.cur] = slot{}
		other := 1 - c.cur
		if !c.slots[other].have {
			return // both generations bad: cold start
		}
		c.st.Fallbacks++
		c.cur = other
	}
}

// RejectUndrained invalidates checkpoint generations whose files still had
// committed-but-undrained burst-log records when the attempt died: those
// records lived in volatile node-local memory, so the generation on the PFS
// is incomplete even though the application saw its writes complete. Like
// VerifyRestart it walks newest-first and falls back to the older generation
// (or to a cold start when both are incomplete). pending maps file name to
// undrained bytes, as harvested from the dying tier.
func (c *Coordinator) RejectUndrained(pending map[string]int64) {
	for tries := 0; tries < len(c.slots); tries++ {
		if !c.slots[c.cur].have {
			return
		}
		if pending[c.fileOf(c.cur)] == 0 {
			return
		}
		c.st.DrainRejects++
		c.slots[c.cur] = slot{}
		other := 1 - c.cur
		if !c.slots[other].have {
			return // both generations incomplete: cold start
		}
		c.st.Fallbacks++
		c.cur = other
	}
}

// FileBase returns the checkpoint file base name; the burst tier intercepts
// writes under this prefix.
func (c *Coordinator) FileBase() string { return c.cfg.FileName }

// ResumeUnit implements workload.Checkpointer.
func (c *Coordinator) ResumeUnit() int {
	if !c.slots[c.cur].have {
		return 0
	}
	return c.slots[c.cur].unit
}

// Restore implements workload.Checkpointer: the node re-reads its slice of
// the newest valid checkpoint generation.
func (c *Coordinator) Restore(p *sim.Process, fs workload.FS, node int) error {
	if !c.slots[c.cur].have || c.cfg.BytesPerNode == 0 {
		return nil
	}
	start := p.Now()
	h, err := fs.Open(p, node, c.fileOf(c.cur), iotrace.ModeUnix)
	if err != nil {
		return fmt.Errorf("ckpt restore: %w", err)
	}
	if _, err := h.Seek(p, int64(node)*c.cfg.BytesPerNode, pfs.SeekStart); err != nil {
		return fmt.Errorf("ckpt restore: %w", err)
	}
	if _, err := h.Read(p, c.cfg.BytesPerNode); err != nil {
		return fmt.Errorf("ckpt restore: %w", err)
	}
	if err := h.Close(p); err != nil {
		return fmt.Errorf("ckpt restore: %w", err)
	}
	c.st.Restores++
	c.st.RestoreTime += p.Now() - start
	return nil
}

// AfterUnit implements workload.Checkpointer. On a checkpoint unit every
// node: rendezvouses (a checkpoint is globally consistent), writes its slice
// to the target generation's file, flushes, rendezvouses again, and then
// node 0 commits. Commits alternate between the two generation files, so the
// previous checkpoint stays intact while the next one is written. An I/O
// failure inside the round surfaces to the caller and the checkpoint does
// not commit — the previous one remains the restart point.
//
// Reading c.cur after the first barrier is consistent across nodes: node 0
// only updates it after the second barrier, and must re-enter the first
// barrier before any node can pass it again.
func (c *Coordinator) AfterUnit(p *sim.Process, fs workload.FS, node, unit int) error {
	if c.cfg.Interval <= 0 || (unit+1)%c.cfg.Interval != 0 {
		return nil
	}
	start := p.Now()
	c.barrier.Wait(p)
	target := 1 - c.cur
	if node == 0 && c.phase != nil {
		c.prevPhase = c.phase.Phase()
		c.phase.SetPhase(PhaseCheckpoint)
	}
	if c.cfg.BytesPerNode > 0 {
		if !c.created[target] {
			// First commit to this generation on this attempt's machine:
			// install its file (free, like Prepare would have). Only the
			// first node past the barrier creates it.
			if _, err := fs.Preload(c.fileOf(target), 0); err != nil {
				return fmt.Errorf("ckpt write: %w", err)
			}
			c.created[target] = true
		}
		h, err := fs.Open(p, node, c.fileOf(target), iotrace.ModeUnix)
		if err != nil {
			return fmt.Errorf("ckpt write: %w", err)
		}
		if _, err := h.Seek(p, int64(node)*c.cfg.BytesPerNode, pfs.SeekStart); err != nil {
			return fmt.Errorf("ckpt write: %w", err)
		}
		if _, err := h.Write(p, c.cfg.BytesPerNode); err != nil {
			return fmt.Errorf("ckpt write: %w", err)
		}
		if err := h.Flush(p); err != nil {
			return fmt.Errorf("ckpt write: %w", err)
		}
		if err := h.Close(p); err != nil {
			return fmt.Errorf("ckpt write: %w", err)
		}
	}
	c.barrier.Wait(p)
	if node == 0 {
		c.slots[target] = slot{
			unit:     unit + 1,
			commitAt: c.base + p.Now(),
			have:     true,
		}
		c.cur = target
		c.st.Checkpoints++
		c.st.CommittedUnit = unit + 1
		c.st.LastCommitAt = c.slots[target].commitAt
		if c.phase != nil {
			c.phase.SetPhase(c.prevPhase)
		}
	}
	c.st.Overhead += p.Now() - start
	return nil
}

// TraceEvents implements workload.Checkpointer: a restore reads the node's
// slice (open, seek, read, close) and each checkpoint writes it (open, seek,
// write, flush, close). Without a slice to move neither touches a file.
func (c *Coordinator) TraceEvents(units int) int {
	if c.cfg.BytesPerNode == 0 {
		return 0
	}
	from, n := c.ResumeUnit(), 0
	if from > 0 {
		n += 4
	}
	if c.cfg.Interval > 0 && units > from {
		// Checkpoint units u in [from, units) satisfy (u+1)%Interval == 0.
		n += 5 * (units/c.cfg.Interval - from/c.cfg.Interval)
	}
	return n
}

// Have reports whether a checkpoint has committed (and survived
// verification).
func (c *Coordinator) Have() bool { return c.slots[c.cur].have }

// LastCommitAt returns the absolute instant of the newest valid commit (zero
// if none).
func (c *Coordinator) LastCommitAt() sim.Time { return c.slots[c.cur].commitAt }

// Stats returns accumulated checkpoint statistics.
func (c *Coordinator) Stats() Stats { return c.st }

// Interface-satisfaction check.
var _ workload.Checkpointer = (*Coordinator)(nil)

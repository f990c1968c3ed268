// Package replay re-executes a captured application I/O trace against an
// alternative machine configuration — trace-driven evaluation, the
// methodology the paper positions its traces for ("file system and storage
// hierarchy designers have little empirical data on parallel input/output
// access patterns", §1). A trace captured from one simulated machine (or
// loaded from an SDDF file) can be replayed with a different I/O-node
// count, striping unit, disk model, or cost model, answering "what would
// this application's I/O have cost on that configuration?". Config is a
// workload.AppConfig, so a replay runs through core.Run like any app.
//
// Replay preserves the logical request stream: every data-moving operation
// is reissued at its recorded offset and size by its recorded node, in the
// recorded per-node order, with the recorded inter-request think time
// (optionally). Pointer bookkeeping (seeks) and mode synchronization are
// already baked into the recorded offsets, so replays issue raw positioned
// requests to the machine's PFS, beneath any client layer; the opens,
// closes and metadata operations are replayed against the new machine's
// metadata service. A replayed report keeps the original's size buckets,
// its Write, Open, Close, Lsize and Forflush rows, and its Read and
// AsynchRead rows taken together. It has no Seek, AsynchRead or I/O Wait
// row: seeks are not reissued, an asynchronous read is reissued as a
// background read, and a wait blocks on that read without a record.
package replay

import (
	"fmt"
	"slices"

	"repro/internal/iotrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config is a replay of one trace: a workload.AppConfig.
type Config struct {
	// Trace is the application-level trace to replay (a Report's Events or
	// an SDDF file's contents).
	Trace []iotrace.Event

	// Nodes is the compute partition; 0 sizes it to 1 + the highest traced
	// node.
	Nodes int

	// PreserveThinkTime keeps the trace's inter-request gaps per node
	// (compute time); false issues each node's requests back to back,
	// measuring the configuration's peak response to the request stream.
	PreserveThinkTime bool

	// ThinkJitter perturbs each preserved think gap by up to ±this
	// fraction, in [0, 1] (0 replays the gaps exactly). It models run-to-run
	// compute variability around the recorded trace and only applies with
	// PreserveThinkTime.
	ThinkJitter float64

	// Seed drives the jitter streams: the same (trace, config) replay is
	// bit-identical, a different seed gives an independent perturbation.
	Seed uint64
}

// New implements workload.AppConfig: it validates the configuration and
// plans the replay.
func (c Config) New() (workload.App, error) {
	if len(c.Trace) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if !(c.ThinkJitter >= 0 && c.ThinkJitter <= 1) { // NaN fails both
		return nil, fmt.Errorf("replay: think jitter %v: want a fraction in [0, 1]", c.ThinkJitter)
	}
	if _, err := c.WithNodes(c.ComputeNodes()); err != nil {
		return nil, err
	}
	return &app{cfg: c, plan: newPlan(c.Trace)}, nil
}

// ComputeNodes implements workload.AppConfig.
func (c Config) ComputeNodes() int {
	if c.Nodes != 0 {
		return c.Nodes
	}
	return highestNode(c.Trace) + 1
}

// WithNodes implements workload.AppConfig: the partition must span every
// traced node.
func (c Config) WithNodes(n int) (workload.AppConfig, error) {
	if top := highestNode(c.Trace); n <= top {
		return nil, fmt.Errorf("replay: trace uses node %d, machine has %d nodes", top, n)
	}
	c.Nodes = n
	return c, nil
}

// WithCkpt implements workload.AppConfig: a replay has no work loop to
// checkpoint.
func (c Config) WithCkpt(workload.Checkpointer) (workload.AppConfig, bool) { return c, false }

// OutputPrefixes implements workload.AppConfig: a replay routes nothing
// through the burst log by name.
func (Config) OutputPrefixes() []string { return nil }

// Skipped returns the number of trace records the replay skips, which the
// trace alone decides: a read, write or asynchronous read of a file no
// data-moving record sizes, a zero-byte asynchronous read, a wait with no
// issued read, or an unknown operation (a sliced trace has such records).
func (c Config) Skipped() int64 { return newPlan(c.Trace).skipped }

func highestNode(trace []iotrace.Event) int {
	top := 0
	for _, e := range trace {
		top = max(top, int(e.Node))
	}
	return top
}

// plan is a replay decided from its trace before the run.
type plan struct {
	// streams is the trace split per node, in order, each record the replay
	// skips turned into a seek: like a seek, it keeps its think gap and
	// issues nothing.
	streams [][]iotrace.Event
	// sizes is each file's preload extent, its largest recorded
	// data-moving end, so recorded reads succeed regardless of write order.
	sizes   map[iotrace.FileID]int64
	events  int // one per replayed read, write, async read and metadata operation
	skipped int64
}

func newPlan(trace []iotrace.Event) plan {
	pl := plan{streams: make([][]iotrace.Event, highestNode(trace)+1), sizes: map[iotrace.FileID]int64{}}
	for _, e := range trace {
		if end := e.Offset + e.Bytes; e.Op.Moves() && end > pl.sizes[e.File] {
			pl.sizes[e.File] = end
		}
	}
	type stream struct {
		node int32
		file iotrace.FileID
	}
	pending := map[stream]int{} // issued, unawaited async reads
	for _, e := range trace {
		_, known := pl.sizes[e.File]
		s := stream{e.Node, e.File}
		switch op := e.Op; {
		case op == iotrace.OpSeek:
		case op == iotrace.OpIOWait && pending[s] > 0:
			pending[s]--
		case op == iotrace.OpAsyncRead && known && e.Bytes > 0:
			pending[s]++
			pl.events++
		case (op == iotrace.OpRead || op == iotrace.OpWrite) && known,
			op == iotrace.OpOpen, op == iotrace.OpClose, op == iotrace.OpLsize, op == iotrace.OpFlush:
			pl.events++
		default:
			// A data-moving record of an unsized file, a zero-byte async
			// read, a wait with no issued read, or an unknown operation.
			e.Op = iotrace.OpSeek
			pl.skipped++
		}
		pl.streams[e.Node] = append(pl.streams[e.Node], e)
	}
	return pl
}

// app is one replay run.
type app struct {
	cfg  Config
	plan plan
	errs *workload.NodeErrors
}

// Name implements workload.App.
func (a *app) Name() string { return "replay" }

// TraceEvents implements workload.App: the trace minus its seeks, its
// matched waits and its skipped records.
func (a *app) TraceEvents() int { return a.plan.events }

// Err returns the first node failure, if any.
func (a *app) Err() error { return a.errs.Err() }

// Launch implements workload.App: it preloads every replayed file at its
// extent and spawns one process per traced node.
func (a *app) Launch(m *workload.Machine, _ workload.FS) error {
	a.errs = workload.NewNodeErrors(m.Eng)
	ids := make([]iotrace.FileID, 0, len(a.plan.sizes))
	for id := range a.plan.sizes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	names := make(map[iotrace.FileID]string, len(ids))
	for _, id := range ids {
		names[id] = fmt.Sprintf("replay-file-%d", id)
		if _, err := m.PFS.Preload(names[id], a.plan.sizes[id]); err != nil {
			return err
		}
	}

	// Spawn in node order: each node draws its jitter stream from the
	// shared seed in a fixed sequence, and event-time ties break the same
	// way on every run.
	think, jitter := a.cfg.PreserveThinkTime, a.cfg.ThinkJitter
	base := sim.NewRNG(a.cfg.Seed)
	for node, stream := range a.plan.streams {
		if len(stream) == 0 {
			continue
		}
		var rng *sim.RNG
		if think && jitter > 0 {
			rng = base.Split()
		}
		m.Eng.Spawn(fmt.Sprintf("replay-n%d", node), func(p *sim.Process) {
			if err := replayNode(p, m, names, node, stream, think, rng, jitter); err != nil {
				a.errs.Addf("node %d: %w", node, err)
			}
		})
	}
	return nil
}

// replayNode reissues one node's planned stream. It returns the first
// failed access.
func replayNode(p *sim.Process, m *workload.Machine, names map[iotrace.FileID]string,
	node int, stream []iotrace.Event, think bool, rng *sim.RNG, jitter float64) error {
	var prevEnd sim.Time
	pending := map[iotrace.FileID][]*sim.Completion{} // in-flight async reads
	cost := m.PFS.Config().Cost
	meta := [iotrace.NumOps]sim.Time{iotrace.OpOpen: cost.OpenService, iotrace.OpClose: cost.CloseService,
		iotrace.OpLsize: cost.LsizeService, iotrace.OpFlush: cost.FlushService}

	for i, e := range stream {
		if think && e.Start > prevEnd {
			gap := e.Start - prevEnd
			if rng != nil {
				gap = rng.Jitter(gap, jitter)
			}
			p.Sleep(gap)
		}
		prevEnd = e.End

		name := names[e.File]
		switch e.Op {
		case iotrace.OpRead, iotrace.OpWrite:
			if _, err := m.PFS.Access(p, node, name, e.Op, e.Offset, e.Bytes); err != nil {
				return err
			}
		case iotrace.OpAsyncRead:
			comp := sim.NewCompletion(fmt.Sprintf("replay-ar-%d-%d", node, i))
			pending[e.File] = append(pending[e.File], comp)
			off, n := e.Offset, e.Bytes
			// The issue cost is the configured async-issue overhead.
			p.Sleep(cost.AsyncIssue)
			m.Eng.Spawn(fmt.Sprintf("replay-bg-%d-%d", node, i), func(bg *sim.Process) {
				m.PFS.Access(bg, node, name, iotrace.OpRead, off, n)
				comp.Complete(bg)
			})
		case iotrace.OpIOWait:
			comps := pending[e.File]
			pending[e.File] = comps[1:]
			comps[0].Await(p)
		case iotrace.OpOpen, iotrace.OpClose, iotrace.OpLsize, iotrace.OpFlush:
			// Metadata operations replay as their configured service cost
			// without handle bookkeeping (the data path above is
			// handle-free). Opens/closes contend at the new machine's
			// metadata server via a raw service visit.
			m.PFS.MetaVisit(p, node, e.Op, meta[e.Op])
		case iotrace.OpSeek:
			// Pointer movement is baked into the recorded offsets; a
			// skipped record is planned as a seek.
		}
	}
	// Drain any un-awaited async reads so the engine can finish cleanly.
	for _, comps := range pending {
		for _, c := range comps {
			c.Await(p)
		}
	}
	return nil
}

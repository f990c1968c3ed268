// Package replay re-executes a captured application I/O trace against an
// alternative machine configuration — trace-driven evaluation, the
// methodology the paper positions its traces for ("file system and storage
// hierarchy designers have little empirical data on parallel input/output
// access patterns", §1). A trace captured from one simulated machine (or
// loaded from an SDDF file) can be replayed with a different I/O-node
// count, striping unit, disk model, or cost model, answering "what would
// this application's I/O have cost on that configuration?".
//
// Replay preserves the logical request stream: every data-moving operation
// is reissued at its recorded offset and size by its recorded node, in the
// recorded per-node order, with the recorded inter-request think time
// (optionally). Pointer bookkeeping (seeks) and mode synchronization are
// already baked into the recorded offsets, so replays issue raw positioned
// requests; the opens, closes and metadata operations are replayed against
// the new machine's metadata service.
package replay

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/iotrace"
	"repro/internal/pablo"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options configures a replay.
type Options struct {
	// Machine is the configuration to replay against.
	Machine workload.MachineConfig

	// PreserveThinkTime keeps the trace's inter-request gaps per node
	// (compute time); false issues each node's requests back to back,
	// measuring the configuration's peak response to the request stream.
	PreserveThinkTime bool

	// ThinkJitter perturbs each preserved think gap by up to ±this
	// fraction, in [0, 1] (0 replays the gaps exactly). It models run-to-run
	// compute variability around the recorded trace and only applies with
	// PreserveThinkTime.
	ThinkJitter float64

	// Seed drives the jitter streams: the same (trace, options) replay is
	// bit-identical, a different seed gives an independent perturbation.
	Seed uint64
}

// Result is the outcome of a replay.
type Result struct {
	// Events is the replayed trace: same logical stream, new timings.
	Events []iotrace.Event

	// Makespan is the replay's simulated duration.
	Makespan sim.Time

	// Summary is the operation summary over the replayed events.
	Summary analysis.OpSummary

	// Skipped counts trace records that could not be replayed (e.g.
	// closes without a matching open in a sliced trace).
	Skipped int64
}

// Run replays events (an application-level trace, e.g. a Report's Events or
// an SDDF file's contents) against the machine in opt.
func Run(events []iotrace.Event, opt Options) (*Result, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if !(opt.ThinkJitter >= 0 && opt.ThinkJitter <= 1) { // NaN fails both
		return nil, fmt.Errorf("replay: think jitter %v: want a fraction in [0, 1]", opt.ThinkJitter)
	}
	if opt.Machine.ComputeNodes == 0 {
		opt.Machine = workload.DefaultMachineConfig()
	}
	// The machine must span every node appearing in the trace, and each
	// file is preloaded at its maximum observed extent so recorded reads
	// succeed regardless of write order.
	maxNode, sizes := 0, map[iotrace.FileID]int64{}
	for _, e := range events {
		maxNode = max(maxNode, int(e.Node))
		if end := e.Offset + e.Bytes; e.Op.Moves() && end > sizes[e.File] {
			sizes[e.File] = end
		}
	}
	if opt.Machine.ComputeNodes <= maxNode {
		return nil, fmt.Errorf("replay: trace uses node %d, machine has %d nodes",
			maxNode, opt.Machine.ComputeNodes)
	}
	m, err := workload.NewMachine(opt.Machine)
	if err != nil {
		return nil, err
	}
	// Every replayed record yields at most one event (seeks and waits
	// yield none), so the capture buffer never regrows.
	tracer := pablo.NewTracer(true)
	tracer.Reserve(len(events))
	m.PFS.SetRecorder(tracer)

	names := map[iotrace.FileID]string{}
	ids := make([]iotrace.FileID, 0, len(sizes))
	for id := range sizes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		names[id] = fmt.Sprintf("replay-file-%d", id)
		if _, err := m.PFS.Preload(names[id], sizes[id]); err != nil {
			return nil, err
		}
	}

	// Split the trace into per-node streams, preserving order.
	streams := map[int][]iotrace.Event{}
	for _, e := range events {
		streams[int(e.Node)] = append(streams[int(e.Node)], e)
	}

	// Spawn in node order: each node draws its jitter stream from the
	// shared seed in a fixed sequence, and event-time ties break the same
	// way on every run.
	nodeIDs := make([]int, 0, len(streams))
	for node := range streams {
		nodeIDs = append(nodeIDs, node)
	}
	sort.Ints(nodeIDs)
	base := sim.NewRNG(opt.Seed)
	res := &Result{}
	for _, node := range nodeIDs {
		node, stream := node, streams[node]
		var rng *sim.RNG
		if opt.PreserveThinkTime && opt.ThinkJitter > 0 {
			rng = base.Split()
		}
		m.Eng.Spawn(fmt.Sprintf("replay-n%d", node), func(p *sim.Process) {
			res.Skipped += replayNode(p, m, names, node, stream, opt.PreserveThinkTime, rng, opt.ThinkJitter)
		})
	}
	if err := m.Eng.Run(); err != nil {
		return nil, err
	}
	res.Events = tracer.Events()
	res.Makespan = m.Eng.Now()
	res.Summary = analysis.Summarize(res.Events)
	return res, nil
}

// replayNode reissues one node's stream. It returns the number of records
// it had to skip.
func replayNode(p *sim.Process, m *workload.Machine, names map[iotrace.FileID]string,
	node int, stream []iotrace.Event, think bool, rng *sim.RNG, jitter float64) int64 {
	var skipped int64
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

		name, known := names[e.File]
		switch e.Op {
		case iotrace.OpRead, iotrace.OpWrite:
			if !known {
				skipped++
				continue
			}
			if _, err := m.PFS.Access(p, node, name, e.Op, e.Offset, e.Bytes); err != nil {
				skipped++
			}
		case iotrace.OpAsyncRead:
			if !known || e.Bytes == 0 {
				skipped++
				continue
			}
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
			if len(comps) == 0 {
				skipped++
				continue
			}
			pending[e.File] = comps[1:]
			comps[0].Await(p)
		case iotrace.OpOpen, iotrace.OpClose, iotrace.OpLsize, iotrace.OpFlush:
			// Metadata operations replay as their configured service cost
			// without handle bookkeeping (the data path above is
			// handle-free). Opens/closes contend at the new machine's
			// metadata server via a raw service visit.
			m.PFS.MetaVisit(p, node, e.Op, meta[e.Op])
		case iotrace.OpSeek:
			// Pointer movement is baked into the recorded offsets.
		default:
			skipped++
		}
	}
	// Drain any un-awaited async reads so the engine can finish cleanly.
	for _, comps := range pending {
		for _, c := range comps {
			c.Await(p)
		}
	}
	return skipped
}

package pfs

import (
	"fmt"
	"sort"

	"repro/internal/collective"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

// collPlanBytes is the size of the tiny control messages of the plan
// exchange: one request descriptor per member on the way in, one completion
// notification on the way out.
const collPlanBytes = 32

// collKey identifies one aggregation round: the round-structured modes
// (M_RECORD, M_SYNC) advance a per-handle round counter in lockstep across
// the compute group, so (file, mode, op, round index) names the set of
// requests that belong together.
type collKey struct {
	file iotrace.FileID
	mode iotrace.AccessMode
	op   iotrace.Op
	idx  int64
}

// collMember is one compute node's request within a round. M_RECORD members
// arrive with their offset (the mode's record interleaving fixes it);
// M_SYNC members are assigned offsets in node order when the round flushes,
// which is exactly the order the mode's sequencer would have imposed.
type collMember struct {
	node int
	off  int64
	n    int64
	done int64
	err  error
}

// collRound is an open round barrier: members accumulate until the whole
// compute group has arrived (or the straggler window expires), then the last
// arrival becomes the flusher and runs the two-phase exchange.
type collRound struct {
	key        collKey
	f          *File
	group      int
	comp       *sim.Completion
	members    []*collMember
	flushed    bool
	timerArmed bool
}

// collState is the per-FileSystem collective-I/O engine.
type collState struct {
	fs     *FileSystem
	cfg    collective.Config
	stats  collective.Stats
	rounds map[collKey]*collRound
	seq    int64
}

func newCollState(fs *FileSystem) *collState {
	return &collState{fs: fs, cfg: fs.cfg.Collective, rounds: make(map[collKey]*collRound)}
}

// CollectiveStats returns the aggregation counters; ok is false when
// collective I/O is disabled.
func (fs *FileSystem) CollectiveStats() (collective.Stats, bool) {
	if fs.coll == nil {
		return collective.Stats{}, false
	}
	return fs.coll.stats, true
}

// recordAccess submits one M_RECORD access to its round barrier and blocks
// until the round's aggregated transfer completes. EOF clamping matches the
// per-request path: a read past the end returns ErrEOF without joining (its
// group-mates flush by timer), a read over the tail is shortened.
func (c *collState) recordAccess(p *sim.Process, h *Handle, op iotrace.Op, idx, at, n int64) (int64, error) {
	f := h.file
	if op == iotrace.OpRead {
		if at >= f.size {
			return 0, ErrEOF
		}
		if at+n > f.size {
			n = f.size - at
		}
	}
	m := &collMember{node: h.node, off: at, n: n}
	c.join(p, h, collKey{file: f.id, mode: iotrace.ModeRecord, op: op, idx: idx}, m)
	c.chargeReadCopy(p, op, m.done)
	return m.done, m.err
}

// syncAccess submits one M_SYNC access. The shared offset each member lands
// on is assigned at flush time in node order — the discipline the mode's
// sequencer enforces one request at a time on the per-request path.
func (c *collState) syncAccess(p *sim.Process, h *Handle, op iotrace.Op, idx, n int64) (done, at int64, err error) {
	m := &collMember{node: h.node, off: 0, n: n}
	c.join(p, h, collKey{file: h.file.id, mode: iotrace.ModeSync, op: op, idx: idx}, m)
	c.chargeReadCopy(p, op, m.done)
	return m.done, m.off, m.err
}

// join adds a member to its round, flushing when the compute group is
// complete, arming the straggler timer otherwise, and parking the caller
// until the round's transfer has been issued and completed.
func (c *collState) join(p *sim.Process, h *Handle, key collKey, m *collMember) {
	r := c.rounds[key]
	if r == nil {
		c.seq++
		r = &collRound{
			key:   key,
			f:     h.file,
			group: h.computeNodes(),
			comp:  sim.NewCompletion(fmt.Sprintf("pfs-coll%d", c.seq)),
		}
		c.rounds[key] = r
	}
	r.members = append(r.members, m)
	c.stats.RequestsIn++
	c.stats.BytesIn += m.n
	c.stats.In.Add(m.n)
	if len(r.members) >= r.group {
		c.flush(p, r, true)
	} else if !r.timerArmed {
		r.timerArmed = true
		c.seq++
		c.fs.eng.Spawn(fmt.Sprintf("pfs-coll-timer%d", c.seq), func(tp *sim.Process) {
			tp.Sleep(collective.Window)
			if !r.flushed {
				c.flush(tp, r, false)
			}
		})
	}
	r.comp.Await(p)
}

// flush runs the two-phase exchange for a round: assign offsets (M_SYNC),
// merge the members' extents, decompose them into per-I/O-node runs, charge
// the plan exchange, and spawn the aggregators that move the shuffle traffic
// and issue the bulk transfers. The flusher (the last-arriving member, or
// the straggler timer) waits for every aggregator, settles the members'
// results, and releases the round.
func (c *collState) flush(p *sim.Process, r *collRound, full bool) {
	fs, f := c.fs, r.f
	r.flushed = true
	delete(c.rounds, r.key)
	c.stats.Rounds++
	if full {
		c.stats.FullRounds++
	} else {
		c.stats.TimeoutRounds++
	}

	// Members in node order: M_SYNC's offset assignment follows the mode's
	// node-number discipline, and planning becomes arrival-order independent.
	sort.SliceStable(r.members, func(i, j int) bool { return r.members[i].node < r.members[j].node })

	read := r.key.op == iotrace.OpRead
	if r.key.mode == iotrace.ModeSync {
		off := f.sharedOff
		for _, m := range r.members {
			m.off = off
			if read {
				if off >= f.size {
					m.n, m.err = 0, ErrEOF
					continue
				}
				if off+m.n > f.size {
					m.n = f.size - off
				}
			}
			off += m.n
		}
		f.sharedOff = off
	}

	var exts []collective.Extent
	var maxEnd int64
	for _, m := range r.members {
		if m.err != nil || m.n <= 0 {
			continue
		}
		exts = append(exts, collective.Extent{Start: m.off, End: m.off + m.n})
		if end := m.off + m.n; end > maxEnd {
			maxEnd = end
		}
	}
	if len(exts) == 0 {
		r.comp.Complete(p)
		return
	}

	// Phase one: the plan exchange. The coordination root collects every
	// member's request descriptor, merges the extents, and partitions the
	// resulting runs among the aggregators.
	root := r.members[0].node
	fs.msh.Gather(p, root, len(r.members), collPlanBytes)
	merged := collective.Merge(exts)
	c.stats.MergedExtents += int64(len(merged))
	su := fs.cfg.StripeUnit
	runs := collective.Runs(merged, collective.Layout{
		StripeUnit: su, IONodes: len(fs.ion), FirstIONode: f.firstIONode,
	})

	rel := fs.cfg.Reliability
	var dl sim.Time
	if rel.Enabled {
		fs.rel.Requests += int64(len(runs))
		if rel.Deadline > 0 {
			dl = p.Now() + rel.Deadline
		}
	}

	// Phase two: aggregator a — a compute node drawn from the members —
	// serves the I/O nodes congruent to a, gathering the shuffle bytes from
	// its peers before bulk writes (or scattering after bulk reads), and
	// issues one large request per run through the normal chunk path, so
	// failover, reliability retries, caching and integrity all still apply.
	numAgg := c.cfg.Aggregators
	byAgg := make([][]collective.Run, numAgg)
	for _, run := range runs {
		a := run.ION % numAgg
		byAgg[a] = append(byAgg[a], run)
	}
	errs := make([]error, numAgg)
	remaining := 0
	for _, part := range byAgg {
		if len(part) > 0 {
			remaining++
		}
	}
	c.seq++
	aggDone := sim.NewCompletion(fmt.Sprintf("pfs-coll-aggs%d", c.seq))
	for a := 0; a < numAgg; a++ {
		part := byAgg[a]
		if len(part) == 0 {
			continue
		}
		a := a
		aggNode := r.members[a*len(r.members)/numAgg].node
		c.seq++
		fs.eng.Spawn(fmt.Sprintf("pfs-coll-agg%d", c.seq), func(ap *sim.Process) {
			if !read {
				c.shuffle(ap, r.members, part, aggNode, true)
			}
			for _, run := range part {
				addr := f.arrayAddr(run.Offset/su, run.Offset%su, len(fs.ion), su)
				c.stats.RequestsOut++
				c.stats.BytesOut += run.Bytes
				c.stats.Out.Add(run.Bytes)
				if err := fs.chunkIO(ap, aggNode, f, run.ION, addr, run.Bytes, read, dl); err != nil {
					errs[a] = err
					break
				}
			}
			if read && errs[a] == nil {
				c.shuffle(ap, r.members, part, aggNode, false)
			}
			remaining--
			if remaining == 0 {
				aggDone.Complete(ap)
			}
		})
	}
	aggDone.Await(p)

	var roundErr error
	for _, e := range errs {
		if e != nil {
			roundErr = e
			break
		}
	}
	if roundErr == nil {
		if !read {
			f.extend(maxEnd)
		}
		for _, m := range r.members {
			if m.err == nil {
				m.done = m.n
			}
		}
	} else {
		for _, m := range r.members {
			if m.err == nil {
				m.err = roundErr
			}
		}
	}
	fs.msh.Broadcast(p, root, len(r.members), collPlanBytes)
	r.comp.Complete(p)
}

// shuffle charges one aggregator partition's data movement over the mesh:
// gather (members ship their bytes to the aggregator before it writes) or
// scatter (the aggregator distributes what it read). A member co-located
// with the aggregator moves nothing.
func (c *collState) shuffle(ap *sim.Process, members []*collMember, part []collective.Run, aggNode int, gather bool) {
	fs := c.fs
	for _, m := range members {
		if m.err != nil || m.n <= 0 || m.node == aggNode {
			continue
		}
		var b int64
		for _, run := range part {
			b += overlap(m.off, m.off+m.n, run.Offset, run.Offset+run.Bytes)
		}
		if b == 0 {
			continue
		}
		c.stats.ShuffleMsgs++
		c.stats.ShuffleBytes += b
		if gather {
			fs.msh.Transfer(ap, m.node, aggNode, b)
		} else {
			fs.msh.Transfer(ap, aggNode, m.node, b)
		}
	}
}

// chargeReadCopy applies the client-side record-copy cost a per-request read
// would have paid in doAt, keeping the collective path cost-comparable.
func (c *collState) chargeReadCopy(p *sim.Process, op iotrace.Op, done int64) {
	cost := c.fs.cfg.Cost
	if op == iotrace.OpRead && done > 0 && cost.ReadCopyBytesPerS > 0 && done >= cost.ReadCopyMin {
		p.Sleep(sim.Time(float64(done) / cost.ReadCopyBytesPerS * float64(sim.Second)))
	}
}

func overlap(aStart, aEnd, bStart, bEnd int64) int64 {
	s, e := aStart, aEnd
	if bStart > s {
		s = bStart
	}
	if bEnd < e {
		e = bEnd
	}
	if e <= s {
		return 0
	}
	return e - s
}

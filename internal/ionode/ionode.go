// Package ionode models a Paragon I/O node: a service processor with a FIFO
// request queue in front of one RAID-3 disk array. Compute-node requests
// queue here, so contention among the 128 application nodes for the 16 I/O
// nodes — the effect behind the paper's large per-operation times — emerges
// from the model rather than being hard-coded.
//
// A node can be taken out of service by fault injection: Fail marks it down
// and ejects every queued request (callers receive ErrDown and run the PFS
// failover path), Restore brings it back. Independently, a latency factor
// can be raised to model injected latency storms, and the array behind the
// node can be degraded (disk failure) without the node itself going down.
package ionode

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/integrity"
	"repro/internal/sim"
)

// ErrDown is returned for requests issued to (or ejected from) a node that
// is out of service, and for requests to a node whose array has lost more
// drives than parity covers.
var ErrDown = errors.New("ionode: I/O node is down")

// Node is one I/O node.
type Node struct {
	id    int
	queue *sim.Resource
	sched *dispatcher // nil = legacy strict-FIFO queue
	array *disk.Array
	cache *cache.Cache     // nil when caching is disabled
	integ *integrity.Store // nil when the integrity layer is disabled

	down      bool
	latency   float64 // service-time multiplier; 0 or 1 = nominal
	downSince sim.Time

	requests int64
	bytes    int64
	failures int64
	rejected int64    // requests refused or ejected while down
	downTime sim.Time // completed outage intervals
}

// New creates I/O node id with the given array behind a capacity-1 FIFO
// server (one outstanding array operation at a time, as on the real machine).
func New(eng *sim.Engine, id int, cfg disk.ArrayConfig) *Node {
	return &Node{
		id:    id,
		queue: sim.NewResource(eng, fmt.Sprintf("ionode%d", id), 1),
		array: disk.NewArray(cfg),
	}
}

// ID returns the node's identifier.
func (n *Node) ID() int { return n.id }

// Array exposes the node's disk array (for tests, capacity checks, and fault
// injection).
func (n *Node) Array() *disk.Array { return n.array }

// EnableSched installs a disk-scheduling policy in front of the array,
// replacing the strict-FIFO resource queue. Call before the simulation
// starts issuing requests. An empty policy name is a no-op (legacy FIFO).
func (n *Node) EnableSched(cfg SchedConfig) error {
	if cfg.Policy == "" {
		return nil
	}
	d, err := newDispatcher(fmt.Sprintf("ionode%d", n.id), cfg)
	if err != nil {
		return err
	}
	n.sched = d
	return nil
}

// SchedStats returns the scheduling dispatcher's counters; ok is false when
// the node runs the legacy FIFO queue.
func (n *Node) SchedStats() (SchedStats, bool) {
	if n.sched == nil {
		return SchedStats{}, false
	}
	return n.sched.stats, true
}

// acquire queues p for the node's service slot. addr/span position the
// request in array address space for the scheduling policy; addr < 0 marks
// position-less control work, served in arrival order under every policy.
func (n *Node) acquire(p *sim.Process, addr, span int64) error {
	if n.sched != nil {
		return n.sched.Acquire(p, addr, span)
	}
	return n.queue.AcquireWait(p)
}

// release completes the request p held the service slot for.
func (n *Node) release(p *sim.Process) {
	if n.sched != nil {
		n.sched.Release(p)
		return
	}
	n.queue.Release(p)
}

// AcquireService queues p for the node's service slot like a request would —
// through the scheduling policy when one is installed. It is the entry point
// for control work (rebuild slices) that must contend with foreground
// traffic; addr < 0 marks position-less work.
func (n *Node) AcquireService(p *sim.Process, addr, span int64) error {
	return n.acquire(p, addr, span)
}

// ReleaseService releases a slot taken with AcquireService.
func (n *Node) ReleaseService(p *sim.Process) { n.release(p) }

// EnableCache attaches a block cache between the node's queue and its
// array: demand hits bypass the queue entirely, misses and write-backs go
// through BlockIO. Call before the simulation starts issuing requests.
func (n *Node) EnableCache(eng *sim.Engine, cfg cache.Config, blockBytes int64) {
	n.cache = cache.New(eng, fmt.Sprintf("ion%d-cache", n.id), cfg, blockBytes, n)
}

// Cache returns the node's cache, or nil when caching is disabled.
func (n *Node) Cache() *cache.Cache { return n.cache }

// EnableIntegrity attaches a checksum store to the node's array: writes are
// checksummed and reads verified (both charged the store's verify cost while
// the request holds the queue), parity-repairable mismatches are
// reconstructed in place, and unrepairable ones fail the read with
// integrity.ErrCorrupt. Pass a normalized config and the checksum block
// size; call before the simulation starts issuing requests.
func (n *Node) EnableIntegrity(cfg integrity.Config, blockBytes int64) {
	n.integ = integrity.NewStore(n.id, cfg, blockBytes)
}

// Integrity returns the node's checksum store, or nil when the integrity
// layer is disabled.
func (n *Node) Integrity() *integrity.Store { return n.integ }

// IntegrityStats returns the node's integrity counters; ok is false when the
// layer is disabled.
func (n *Node) IntegrityStats() (integrity.Stats, bool) {
	if n.integ == nil {
		return integrity.Stats{}, false
	}
	return n.integ.Stats(), true
}

// StartScrubber spawns the background scrub process when the node's
// integrity config asks for one: it sweeps written blocks at the configured
// rate, verifying each and repairing latent parity-repairable errors, until
// the scrub window closes. Each slice contends FIFO with foreground requests
// for the node queue.
func (n *Node) StartScrubber(eng *sim.Engine) {
	if n.integ == nil || !n.integ.Config().Scrub.Enabled {
		return
	}
	cfg := n.integ.Config().Scrub
	eng.Spawn(fmt.Sprintf("ion%d-scrub", n.id), func(p *sim.Process) {
		n.scrubLoop(p, cfg)
	})
}

// scrubLoop is the scrubber body: one slice of written blocks per queue
// acquisition, paced to the configured rate, standing down at the window end
// (the process must terminate for the engine to drain).
func (n *Node) scrubLoop(p *sim.Process, cfg integrity.ScrubConfig) {
	bs := n.integ.BlockBytes()
	maxBlocks := int(integrity.ScrubSliceBytes / bs)
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	period := sim.Time(float64(integrity.ScrubSliceBytes) / cfg.RateBytesPerS * float64(sim.Second))
	if period < sim.Millisecond {
		period = sim.Millisecond
	}
	for p.Now() < cfg.Window {
		if n.down || n.array.Dead() {
			p.Sleep(period)
			continue
		}
		start := p.Now()
		if err := n.acquire(p, -1, 0); err != nil {
			p.Sleep(period)
			continue
		}
		if n.down || n.array.Dead() {
			n.release(p)
			p.Sleep(period)
			continue
		}
		idxs, _ := n.integ.ScrubNext(maxBlocks)
		if len(idxs) == 0 {
			n.release(p)
			p.Sleep(period)
			continue
		}
		bytes := int64(len(idxs)) * bs
		p.Sleep(n.scale(n.array.ScrubRead(bytes)) + n.integ.VerifyCost(bytes))
		for _, idx := range idxs {
			class, corrupt := n.integ.ScrubCheck(p.Now(), idx)
			if !corrupt {
				continue
			}
			if class.Repairable() && !n.array.Degraded() && !n.array.Dead() {
				p.Sleep(n.scale(n.array.RepairService(bs)))
				n.integ.Repair(p.Now(), idx, "scrub")
			}
			// Unrepairable: detection is recorded; the block stays corrupt
			// until a rewrite or replica heal clears it.
		}
		n.release(p)
		took := p.Now() - start
		n.integ.CountScrub(int64(len(idxs)), took)
		if took < period {
			p.Sleep(period - took)
		}
	}
}

// CacheStats returns the node's cache counters; ok is false when caching is
// disabled.
func (n *Node) CacheStats() (cache.Stats, bool) {
	if n.cache == nil {
		return cache.Stats{}, false
	}
	s := n.cache.Stats()
	s.Node = n.id
	return s, true
}

// Drain synchronously flushes the cache's dirty blocks for one stream (the
// FORFLUSH path). A no-op without a cache.
func (n *Node) Drain(p *sim.Process, stream int64) error {
	if n.cache == nil {
		return nil
	}
	return n.cache.Drain(p, stream)
}

// Fail takes the node out of service at the current instant: queued requests
// are ejected with ErrDown and new requests are refused until Restore. The
// request in service, if any, completes (its data was already in flight).
// With a cache attached, its outage policy runs first — while the node can
// still reach the array — so FlushOnFail drains charge the failing instant
// and lost dirty blocks are accounted.
func (n *Node) Fail(p *sim.Process) {
	if n.down {
		return
	}
	if n.cache != nil {
		n.cache.OnFail(p)
	}
	n.down = true
	n.failures++
	n.downSince = p.Now()
	if n.sched != nil {
		n.sched.Break(p)
		return
	}
	n.queue.Break(p)
}

// Restore returns the node to service.
func (n *Node) Restore(p *sim.Process) {
	if !n.down {
		return
	}
	n.down = false
	n.downTime += p.Now() - n.downSince
	if n.sched != nil {
		n.sched.Repair()
	} else {
		n.queue.Repair()
	}
	if n.cache != nil {
		n.cache.OnRestore(p)
	}
}

// Down reports whether the node is out of service.
func (n *Node) Down() bool { return n.down }

// SetLatencyFactor scales subsequent request service times by f (>= 1 models
// an injected latency storm; 1 or 0 restores nominal service).
func (n *Node) SetLatencyFactor(f float64) { n.latency = f }

// LatencyFactor returns the current service-time multiplier (1 if nominal).
func (n *Node) LatencyFactor() float64 {
	if n.latency == 0 {
		return 1
	}
	return n.latency
}

// scale applies the latency factor. The nominal path returns t unchanged (no
// float round-trip), so healthy runs are bit-identical.
func (n *Node) scale(t sim.Time) sim.Time {
	if n.latency == 0 || n.latency == 1 {
		return t
	}
	return sim.Time(float64(t) * n.latency)
}

// usable refuses service while the node is down or its array is dead.
func (n *Node) usable() error {
	if n.down || n.array.Dead() {
		n.rejected++
		return ErrDown
	}
	return nil
}

// Do services one request against the array byte address space. Without a
// cache the caller queues FIFO and is charged the array service time; with
// one, hits are served from node memory and only misses and write-backs
// reach the queue. The stream key (the PFS's small non-negative number for
// one copy of a file) drives sequential-access detection and keys the
// cache's per-stream state; read selects the degraded-mode read path when
// a drive is out. It returns the total time spent (queueing + service) and
// ErrDown if the node is (or goes) out of service before the request
// reaches the array.
func (n *Node) Do(p *sim.Process, stream, addr, bytes int64, read bool) (sim.Time, error) {
	start := p.Now()
	if err := n.usable(); err != nil {
		return 0, err
	}
	if n.cache != nil {
		var err error
		if read {
			err = n.cache.Read(p, stream, addr, bytes)
		} else {
			err = n.cache.Write(p, stream, addr, bytes)
		}
		return p.Now() - start, err
	}
	err := n.BlockIO(p, stream, addr, bytes, read)
	return p.Now() - start, err
}

// BlockIO is the raw queue + array service path (the cache.Backend
// implementation): the caller queues FIFO, then is charged the array service
// time. The node's request/byte counters track this physical traffic, so
// with a cache attached they report array-level I/O after hit absorption
// and write-behind coalescing.
func (n *Node) BlockIO(p *sim.Process, stream, addr, bytes int64, read bool) error {
	if err := n.usable(); err != nil {
		return err
	}
	if err := n.acquire(p, addr, bytes); err != nil {
		n.rejected++
		return ErrDown
	}
	if err := n.usable(); err != nil {
		// The array died while we queued (second drive failure).
		n.release(p)
		return ErrDown
	}
	svc := n.scale(n.array.Service(stream, addr, bytes, read))
	if n.integ != nil {
		svc += n.integ.VerifyCost(bytes)
	}
	p.Sleep(svc)
	corrupt := false
	if n.integ != nil {
		if read {
			corrupt = n.verifyRead(p, addr, bytes)
		} else {
			n.integ.CommitWrite(p.Now(), addr, bytes)
		}
	}
	n.release(p)
	n.requests++
	n.bytes += bytes
	if corrupt {
		n.integ.CountCorruptRead()
		return fmt.Errorf("ionode%d: read at %d: %w", n.id, addr, integrity.ErrCorrupt)
	}
	return nil
}

// verifyRead runs checksum verification over a completed read, repairing
// parity-repairable mismatches in place (the reconstruction is charged while
// the queue is still held) and reporting whether unrepairable corruption
// remains — in which case the read must fail rather than serve poison.
func (n *Node) verifyRead(p *sim.Process, addr, bytes int64) bool {
	dets := n.integ.CheckRead(p.Now(), addr, bytes)
	bad := false
	for _, d := range dets {
		if d.Class.Repairable() && !n.array.Degraded() && !n.array.Dead() {
			p.Sleep(n.scale(n.array.RepairService(n.integ.BlockBytes())))
			n.integ.Repair(p.Now(), d.Block, "read")
			continue
		}
		bad = true
	}
	return bad
}

// DoSweep services a scatter-gather batch: `requests` disjoint pieces
// totalling `bytes`, submitted together and serviced in one sorted arm pass
// starting at addr. The caller queues once for the whole sweep. Sweeps
// bypass the block cache: they are the PPFS aggregation path, already
// coalesced client-side.
func (n *Node) DoSweep(p *sim.Process, stream, addr, bytes int64, requests int) (sim.Time, error) {
	start := p.Now()
	if err := n.usable(); err != nil {
		return 0, err
	}
	if err := n.acquire(p, addr, bytes); err != nil {
		n.rejected++
		return p.Now() - start, ErrDown
	}
	if err := n.usable(); err != nil {
		n.release(p)
		return p.Now() - start, ErrDown
	}
	svc := n.scale(n.array.SweepServiceTime(stream, addr, bytes, requests))
	if n.integ != nil {
		// Sweeps carry disjoint pieces whose addresses are not recoverable
		// from (addr, bytes), so they pay the checksum compute cost but do
		// not update per-block state.
		svc += n.integ.VerifyCost(bytes)
	}
	p.Sleep(svc)
	n.release(p)
	n.requests += int64(requests)
	n.bytes += bytes
	return p.Now() - start, nil
}

// Sync charges a cheap queue round-trip with no data transfer; used for
// flush and size queries.
func (n *Node) Sync(p *sim.Process, cost sim.Time) (sim.Time, error) {
	start := p.Now()
	if err := n.usable(); err != nil {
		return 0, err
	}
	if err := n.acquire(p, -1, 0); err != nil {
		n.rejected++
		return p.Now() - start, ErrDown
	}
	p.Sleep(n.scale(cost))
	n.release(p)
	return p.Now() - start, nil
}

// Stats reports accumulated request count and bytes moved through this node.
func (n *Node) Stats() (requests, bytes int64) { return n.requests, n.bytes }

// FaultStats summarizes the node's fault history.
type FaultStats struct {
	Failures int64    // outages begun
	Rejected int64    // requests refused or ejected while down
	DownTime sim.Time // completed outage intervals
}

// FaultStats returns the node's fault counters. DownTime covers completed
// outages only.
func (n *Node) FaultStats() FaultStats {
	return FaultStats{Failures: n.failures, Rejected: n.rejected, DownTime: n.downTime}
}

// Package mesh models the Intel Paragon XP/S interconnect: a 2-D wormhole-
// routed mesh with per-hop latency and per-link bandwidth. The model is a
// cost calculator — senders charge themselves the injection plus network time
// — which is the right granularity for an I/O characterization study: only
// the latency experienced by communicating processes matters, not packet-
// level behaviour.
package mesh

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Link performance of the Paragon XP/S: ~70 µs one-way software latency,
// sub-microsecond hop delay, and ~90 MB/s links (of which applications
// typically sustained far less; the cost model's software latency dominates
// small messages as it did in practice).
const (
	swLatency   = 70 * sim.Microsecond // per-message software overhead (send+receive)
	hopLatency  = 1 * sim.Microsecond  // per-hop routing delay
	bwBytesPerS = 90e6                 // point-to-point link bandwidth, bytes/second
)

// Lookahead is the minimum latency of any message crossing the mesh: the
// per-message software overhead plus one hop of routing delay. A fleet
// launches each cell's job this long after the fleet starts.
const Lookahead = swLatency + hopLatency

// Mesh is the interconnect model shared by all nodes of a simulated machine.
type Mesh struct {
	cols int // mesh width; nodes are numbered row-major
	rows int // mesh height

	// statistics
	messages int64
	bytes    int64
}

// New creates the smallest near-square mesh that holds the given number of
// nodes, which must be at least one.
func New(nodes int) *Mesh {
	if nodes < 1 {
		panic(fmt.Sprintf("mesh: invalid node count %d", nodes))
	}
	cols := int(math.Ceil(math.Sqrt(float64(nodes))))
	return &Mesh{cols: cols, rows: (nodes + cols - 1) / cols}
}

// Nodes returns the number of node positions in the mesh.
func (m *Mesh) Nodes() int { return m.cols * m.rows }

// Hops returns the Manhattan distance between two node numbers.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := src%m.cols, src/m.cols
	dx, dy := dst%m.cols, dst/m.cols
	return abs(sx-dx) + abs(sy-dy)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Cost returns the modeled one-way time for a message of the given size
// between two nodes: software latency + hop delays + serialization.
func (m *Mesh) Cost(src, dst int, bytes int64) sim.Time {
	if bytes < 0 {
		panic("mesh: negative message size")
	}
	ser := sim.Time(float64(bytes) / bwBytesPerS * float64(sim.Second))
	return swLatency + sim.Time(m.Hops(src, dst))*hopLatency + ser
}

// Transfer charges the calling process the cost of sending bytes from src to
// dst and records the traffic. It returns the charged time.
func (m *Mesh) Transfer(p *sim.Process, src, dst int, bytes int64) sim.Time {
	c := m.Cost(src, dst, bytes)
	m.messages++
	m.bytes += bytes
	p.Sleep(c)
	return c
}

// BroadcastCost returns the modeled time for a software-tree broadcast of the
// given payload from root to n participants: ceil(log2(n)) stages, each
// costing one worst-case message. This is the pattern ESCAT and RENDER use
// after their single-reader initialization (§5.1, §6.1).
func (m *Mesh) BroadcastCost(root int, participants int, bytes int64) sim.Time {
	if participants <= 1 {
		return 0
	}
	stages := bitsLen(participants - 1)
	worst := swLatency +
		sim.Time(m.cols+m.rows)*hopLatency +
		sim.Time(float64(bytes)/bwBytesPerS*float64(sim.Second))
	return sim.Time(stages) * worst
}

// Broadcast charges the calling process (the root) the broadcast time.
func (m *Mesh) Broadcast(p *sim.Process, root, participants int, bytes int64) sim.Time {
	c := m.BroadcastCost(root, participants, bytes)
	m.messages += int64(participants - 1)
	m.bytes += bytes * int64(participants-1)
	p.Sleep(c)
	return c
}

// GatherCost returns the modeled time for the root to collect one payload of
// the given size from each participant (serialized arrivals at the root's
// injection port — the conservative model for a 1995 gather).
func (m *Mesh) GatherCost(root, participants int, bytesEach int64) sim.Time {
	if participants <= 1 {
		return 0
	}
	per := swLatency +
		sim.Time(m.cols+m.rows)*hopLatency +
		sim.Time(float64(bytesEach)/bwBytesPerS*float64(sim.Second))
	return sim.Time(participants-1) * per
}

// Gather charges the calling process (the root) the gather time.
func (m *Mesh) Gather(p *sim.Process, root, participants int, bytesEach int64) sim.Time {
	c := m.GatherCost(root, participants, bytesEach)
	m.messages += int64(participants - 1)
	m.bytes += bytesEach * int64(participants-1)
	p.Sleep(c)
	return c
}

// Messages returns the number of messages charged so far.
func (m *Mesh) Messages() int64 { return m.messages }

// Bytes returns the number of payload bytes charged so far.
func (m *Mesh) Bytes() int64 { return m.bytes }

func bitsLen(v int) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

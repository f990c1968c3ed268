// Failure-domain-aware replica placement. The legacy rule — every stripe
// chunk keeps its single mirror on the next I/O node, (i+1) mod N — is the
// degenerate case of a zone-interleaved replica ring: nodes are ordered
// round-robin across their outage zones, and copy r of a chunk whose primary
// sits at ring position k lives at ring position (k+r) mod N. Because each
// rotation of the ring is a bijection, every replica address maps back to
// exactly one primary (the corruption ledger and the repair daemon both need
// that inverse), and because consecutive ring entries alternate zones,
// consecutive copies land in distinct outage domains whenever the fleet has
// them — a full zone loss leaves at least one live copy of every chunk at
// RF >= 2 with >= 2 balanced zones.
package pfs

import (
	"fmt"

	"repro/internal/sim"
)

// Read policies for replicated reads.
const (
	// ReadPrimaryFirst always reads the primary copy and touches replicas
	// only on failover — the legacy behaviour, and the default.
	ReadPrimaryFirst = "primary-first"

	// ReadAnyReplica spreads healthy reads across all copies of a chunk
	// (copy index derived from the chunk address), trading the primary's
	// sequential stream locality for balanced load.
	ReadAnyReplica = "any-replica"

	// ReadQuorum answers detected corruption by reading enough replicas to
	// form a majority of the replication factor before trusting any copy,
	// instead of accepting the first replica that verifies.
	ReadQuorum = "quorum"
)

// ReplicationConfig is the failover layer's N-way replication policy. Factor
// 2 on the zone-interleaved ring is, over a homogeneous fleet, the classic
// single mirror on the next I/O node, (i+1) mod N, bit for bit. The zero
// value keeps one copy.
type ReplicationConfig struct {
	// Factor is the number of copies of every stripe chunk, primary
	// included; 0 and 1 both mean one copy. Clamped to the I/O-node count.
	// Replication is inert without Failover.Enabled.
	Factor int

	// Seed perturbs the within-zone node order of the replica ring. 0 keeps
	// the nodes in index order, which over a single-zone fleet reproduces
	// the legacy neighbour placement exactly.
	Seed uint64

	// ReadPolicy selects how replicated reads pick a copy: primary-first
	// (default), any-replica, or quorum.
	ReadPolicy string

	// Repair configures the background repair control plane that
	// re-replicates chunks whose copies were missed during an outage.
	Repair RepairConfig
}

// MaxReplicationFactor bounds the configurable copy count.
const MaxReplicationFactor = 4

// validate checks the replication section of a Config.
func (c ReplicationConfig) validate() error {
	if c.Factor < 0 || c.Factor > MaxReplicationFactor {
		return fmt.Errorf("pfs: replication factor %d: want 1..%d", c.Factor, MaxReplicationFactor)
	}
	switch c.ReadPolicy {
	case "", ReadPrimaryFirst, ReadAnyReplica, ReadQuorum:
	default:
		return fmt.Errorf("pfs: read policy %q: want %s, %s or %s",
			c.ReadPolicy, ReadPrimaryFirst, ReadAnyReplica, ReadQuorum)
	}
	return c.Repair.validate()
}

// normalized resolves the effective policy against the failover config and
// fleet size: factor 0 means one copy, replication without failover (no
// reroute machinery to reach the copies) collapses to factor 1, and the
// factor is clamped to the node population.
func (c ReplicationConfig) normalized(fo FailoverConfig, nion int) ReplicationConfig {
	if c.Factor == 0 || !fo.Enabled {
		c.Factor = 1
	}
	if c.Factor > nion {
		c.Factor = nion
	}
	if c.ReadPolicy == "" {
		c.ReadPolicy = ReadPrimaryFirst
	}
	return c
}

// Replica copy tags. A chunk's copy r > 0 occupies a separate region of the
// target node's array address space and a separate stream, so replica
// traffic neither masquerades as a continuation of primary streams nor
// collides between copies at RF > 2. Addresses carry the copy index at bit
// 56, clear of both the per-file local space (bits 0..32) and the file id
// (bits 34 up). Streams are numbered densely instead: copy r of file fid is
// stream fid*MaxReplicationFactor + r, so an I/O node's cache can keep its
// per-stream state in slices indexed by stream. The disk array compares
// stream numbers only for equality, so any one-to-one numbering serves.
const (
	replicaAddrShift = 56

	// localAddrMask extracts a file-local byte address from an array
	// address; the per-file region must stay below bit 33.
	localAddrMask = int64(1)<<33 - 1
)

// replicaStream numbers copy r of file fid's node stream (r = 0 is the
// primary). Every stream key the PFS hands an I/O node goes through it.
func replicaStream(fid int64, r int) int64 { return fid*MaxReplicationFactor + int64(r) }

// replicaAddr tags an array address with a copy index.
func replicaAddr(addr int64, r int) int64 { return addr | int64(r)<<replicaAddrShift }

// splitReplicaAddr undoes replicaAddr: the untagged address and copy index.
func splitReplicaAddr(addr int64) (base int64, r int) {
	return addr & (int64(1)<<replicaAddrShift - 1), int(addr >> replicaAddrShift)
}

// placer is the materialized placement function: the zone-interleaved
// replica ring and its inverse.
type placer struct {
	ring []int // ring position -> node
	pos  []int // node -> ring position
}

// newPlacer builds the ring for a fleet described by per-node zones. Nodes
// are grouped by zone (zones in ascending order, members in index order,
// optionally shuffled within their zone by seed) and interleaved round-robin
// across the zones, so ring neighbours sit in different outage domains
// wherever the zone populations allow.
func newPlacer(zones []int, seed uint64) *placer {
	members := map[int][]int{}
	var order []int
	for node, z := range zones {
		if len(members[z]) == 0 {
			order = append(order, z)
		}
		members[z] = append(members[z], node)
	}
	sortInts(order)
	if seed != 0 {
		for _, z := range order {
			shuffle(members[z], seed^uint64(z)*0x9e3779b97f4a7c15)
		}
	}
	ring := make([]int, 0, len(zones))
	for i := 0; len(ring) < len(zones); i++ {
		for _, z := range order {
			if m := members[z]; i < len(m) {
				ring = append(ring, m[i])
			}
		}
	}
	pos := make([]int, len(ring))
	for i, n := range ring {
		pos[n] = i
	}
	return &placer{ring: ring, pos: pos}
}

// target returns the node holding copy r of a chunk whose primary is the
// given node (r = 0 is the primary itself).
func (pl *placer) target(primary, r int) int {
	n := len(pl.ring)
	return pl.ring[(pl.pos[primary]+r)%n]
}

// primaryOf inverts target: the primary whose copy r lives on node.
func (pl *placer) primaryOf(node, r int) int {
	n := len(pl.ring)
	return pl.ring[((pl.pos[node]-r)%n+n)%n]
}

// ReplicationFactor returns the effective copy count per chunk (1 = no
// replication).
func (fs *FileSystem) ReplicationFactor() int { return fs.rf }

// shuffle is a seeded Fisher-Yates over a node list.
func shuffle(nodes []int, seed uint64) {
	rng := sim.NewRNG(seed)
	for i := len(nodes) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
}

// sortInts is insertion sort (zone lists are tiny; avoids pulling sort into
// the hot-path file for one call).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

package pfs

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/collective"
	"repro/internal/disk"
	"repro/internal/integrity"
	"repro/internal/ionode"
	"repro/internal/sim"
)

// Config describes a PFS instance: the I/O-node population, striping, the
// disk arrays, and the software cost model.
type Config struct {
	IONodes    int              // number of I/O nodes (paper: 16)
	StripeUnit int64            // striping unit in bytes (paper: 64 KB)
	Disk       disk.ArrayConfig // RAID-3 array behind each I/O node
	Cost       CostModel        // software path costs

	// Nodes, when non-empty, makes the I/O-node population heterogeneous:
	// entry i overrides the fleet-wide defaults for node i. Its length must
	// equal IONodes. Empty keeps the homogeneous shape (every node gets
	// Disk and Cache verbatim), byte-identical to earlier revisions.
	Nodes []NodeConfig

	// ComputeNodes is the compute-partition size N used by the interleaved
	// modes (M_SYNC node ordering, M_RECORD's record k = round*N + node).
	// Zero derives N from the mesh (total positions minus I/O nodes),
	// which is only correct when the mesh holds exactly the partition.
	ComputeNodes int

	// Failover governs what a request does when its I/O node is down. The
	// zero value disables failover entirely: a request to a dead node
	// errors out immediately (the paper-faithful behaviour — PFS had no
	// redundancy across I/O nodes).
	Failover FailoverConfig

	// Replication is the failover layer's N-way policy: replication factor
	// 1..4, failure-domain-aware placement over the zones in Nodes, read
	// policies, and the background repair control plane. The zero value
	// keeps one copy of every chunk.
	Replication ReplicationConfig

	// Cache attaches a block cache to every I/O node (the §8 what-if: the
	// real PFS had none, every request went straight to the arrays). The
	// zero value leaves the data path untouched; the cache block size
	// defaults to the stripe unit so one block fetch is one stripe chunk.
	Cache cache.Config

	// Integrity attaches a checksum store to every I/O node: writes are
	// checksummed, reads verified, parity-repairable mismatches repaired in
	// place, and a background scrubber (when configured) sweeps for latent
	// errors. The zero value leaves the data path untouched; the checksum
	// block size defaults to the stripe unit.
	Integrity integrity.Config

	// Reliability layers per-request deadlines and corrupt-read retries with
	// seeded backoff + jitter over the transfer path. The zero value
	// disables it.
	Reliability ReliabilityConfig

	// Collective enables two-phase aggregation for the round-structured
	// access modes (M_RECORD, M_SYNC): a round's per-node requests meet at a
	// barrier, are interval-merged into stripe runs, and issued as a handful
	// of large transfers by aggregator nodes, with the member↔aggregator
	// shuffle charged on the mesh. The zero value keeps the per-request
	// paths. (M_GLOBAL needs no aggregation: one leader transfer per round
	// already serves the whole group.)
	Collective collective.Config

	// Sched selects the disk-scheduling policy at every I/O node. The zero
	// value keeps the legacy strict-FIFO queue, byte-identical to earlier
	// revisions; "cscan" installs the elevator with its anticipatory
	// batching window. Each node's policy draws from its own substream of
	// Sched.Seed.
	Sched ionode.SchedConfig
}

// NodeConfig overrides the fleet-wide defaults for one I/O node — the unit of
// heterogeneity template-driven fleets are generated from. The zero value
// overrides nothing: the node behaves exactly as under the homogeneous
// configuration.
type NodeConfig struct {
	// Disk, when non-nil, replaces Config.Disk for this node (a slower or
	// faster array, a different drive population).
	Disk *disk.ArrayConfig

	// CacheBytes, when positive, overrides the cache capacity for this node.
	// It only applies when Config.Cache is enabled — per-node capacities
	// shape an existing cache tier, they do not switch it on.
	CacheBytes int64

	// Zone is the node's outage domain (rack, power feed). Zone-scoped
	// chaos targets every node sharing a zone; zero is the default domain.
	Zone int

	// Template names the fleet template this node was generated from, for
	// reports. Empty for hand-built configurations.
	Template string
}

// FailoverConfig describes the request failover policy used under injected
// I/O-node outages. With Enabled, a request that finds (or is ejected from)
// a dead node charges failoverDetectTimeout, then retries up to
// failoverRetries times with exponential backoff. With
// Config.Replication.Factor >= 2, every stripe additionally keeps copies on
// other I/O nodes: writes are mirrored to them, and retries re-route to them
// instead of hammering the dead primary — so reads survive an outage at the
// cost of extra write traffic.
type FailoverConfig struct {
	Enabled bool
}

// The failover policy: a 50 ms detection timeout, then 4 retries starting at
// a 100 ms backoff that doubles per retry.
const (
	failoverDetectTimeout = 50 * sim.Millisecond // cost to conclude the primary is dead
	failoverBackoff       = 100 * sim.Millisecond
	failoverRetries       = 4
)

// DefaultFailoverConfig returns the enabled failover policy. Replication is
// off; callers wanting reroute-to-replica set Config.Replication.Factor.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{Enabled: true}
}

// DefaultConfig returns the CCSF Paragon configuration from §3.2: 16 I/O
// nodes, 64 KB stripes, RAID-3 arrays of five 1.2 GB disks.
func DefaultConfig() Config {
	return Config{
		IONodes:    16,
		StripeUnit: 64 * 1024,
		Disk:       disk.DefaultArrayConfig(),
		Cost:       DefaultCostModel(),
	}
}

// Validate reports a descriptive error for nonsensical configurations.
func (c Config) Validate() error {
	if c.IONodes < 1 {
		return fmt.Errorf("pfs: config needs >= 1 I/O node, got %d", c.IONodes)
	}
	if c.StripeUnit < 1 {
		return fmt.Errorf("pfs: stripe unit %d < 1", c.StripeUnit)
	}
	if len(c.Nodes) != 0 && len(c.Nodes) != c.IONodes {
		return fmt.Errorf("pfs: %d per-node configs for %d I/O nodes (Nodes must be empty or exactly IONodes long)",
			len(c.Nodes), c.IONodes)
	}
	for i, n := range c.Nodes {
		if n.Disk != nil {
			if n.Disk.BWBytesPerS <= 0 {
				return fmt.Errorf("pfs: node %d (%s): non-positive disk bandwidth %g B/s",
					i, templateLabel(n), n.Disk.BWBytesPerS)
			}
		}
		if n.CacheBytes < 0 {
			return fmt.Errorf("pfs: node %d (%s): negative cache capacity %d", i, templateLabel(n), n.CacheBytes)
		}
		if n.CacheBytes > 0 && !c.Cache.Enabled {
			return fmt.Errorf("pfs: node %d (%s): per-node cache capacity set but the cache tier is disabled (enable Config.Cache)",
				i, templateLabel(n))
		}
		if n.Zone < 0 {
			return fmt.Errorf("pfs: node %d (%s): negative zone %d", i, templateLabel(n), n.Zone)
		}
	}
	if err := c.Replication.validate(); err != nil {
		return err
	}
	if err := c.Sched.Validate(); err != nil {
		return err
	}
	return nil
}

func templateLabel(n NodeConfig) string {
	if n.Template == "" {
		return "untemplated"
	}
	return "template " + n.Template
}

// nodeDisk resolves node i's array configuration.
func (c Config) nodeDisk(i int) disk.ArrayConfig {
	if i < len(c.Nodes) && c.Nodes[i].Disk != nil {
		return *c.Nodes[i].Disk
	}
	return c.Disk
}

// nodeCache resolves node i's normalized cache configuration; Enabled is
// false when the cache tier is off.
func (c Config) nodeCache(i int) cache.Config {
	if !c.Cache.Enabled {
		return cache.Config{}
	}
	cc := c.Cache
	if i < len(c.Nodes) && c.Nodes[i].CacheBytes > 0 {
		cc.CapacityBytes = c.Nodes[i].CacheBytes
	}
	return cc.Normalized()
}

// Zones returns each I/O node's outage domain, all zeros for homogeneous
// configurations.
func (c Config) Zones() []int {
	zones := make([]int, c.IONodes)
	for i := range zones {
		if i < len(c.Nodes) {
			zones[i] = c.Nodes[i].Zone
		}
	}
	return zones
}

// CostModel collects the software-path service times of the file system.
// The defaults are calibrated so that the three application skeletons
// reproduce the time columns of the paper's Tables 1, 3 and 5 in shape and
// rough magnitude; per-application presets (the authors ran "several versions
// of Intel OSF/1" whose costs differed) live with each application package
// and are documented in EXPERIMENTS.md.
type CostModel struct {
	// ClientOverhead is charged on the compute node for every file-system
	// call: trap, library, and PFS client work.
	ClientOverhead sim.Time

	// AsyncIssue is the cost of issuing an asynchronous read (the part the
	// paper measures as the AsynchRead row of Table 3); the transfer itself
	// proceeds in the background and un-overlapped remainder surfaces as
	// I/O-wait time.
	AsyncIssue sim.Time

	// OpenService is the metadata-server service time to open an existing
	// file; CreateService the (much larger, on PFS) time to create one.
	// Opens serialize at the metadata server, which is how the paper's
	// open storms (HTF integral phase, 63% of I/O time) arise.
	OpenService   sim.Time
	CreateService sim.Time

	// FirstOpenPenalty is a one-time client initialization cost added to a
	// program's first open — PFS attached the client to the I/O subsystem
	// on first contact.
	FirstOpenPenalty sim.Time

	// CloseService is the metadata-server service time for close.
	CloseService sim.Time

	// SeekService models PFS's synchronous seek, which validated the new
	// position with the I/O subsystem; on shared files it additionally
	// serializes on the file's atomicity token (ESCAT's 54% seek time).
	SeekService sim.Time

	// LsizeService and FlushService cover the Fortran runtime's LSIZE and
	// FORFLUSH calls observed in the Hartree-Fock integral phase.
	LsizeService sim.Time
	FlushService sim.Time

	// SharedTokenService is the token round-trip cost charged per access in
	// the shared-file-pointer modes (M_LOG, M_SYNC, M_GLOBAL).
	SharedTokenService sim.Time

	// ReadCopyBytesPerS, when positive, charges the client an extra
	// bytes/rate copy cost on reads of at least ReadCopyMin bytes. It
	// models the Fortran runtime's record-copy path for large records,
	// which in the HTF self-consistent-field phase roughly doubled the
	// application-visible read time without occupying the I/O nodes.
	ReadCopyBytesPerS float64
	ReadCopyMin       int64

	// WriteBufferBytes, when positive, enables client-side buffering of
	// small sequential M_UNIX writes: a write smaller than the buffer
	// appends locally at roughly the client overhead, and physical
	// transfers happen one buffer at a time (or when a read, seek, flush,
	// or close drains the residue). This models the Fortran runtime
	// buffering visible in the HTF initialization trace, where hundreds of
	// multi-KB writes average ~12 ms while comparable reads pay full disk
	// positioning.
	WriteBufferBytes int64
}

// DefaultCostModel returns mid-range calibration values.
func DefaultCostModel() CostModel {
	return CostModel{
		ClientOverhead:     500 * sim.Microsecond,
		AsyncIssue:         10 * sim.Millisecond,
		OpenService:        70 * sim.Millisecond,
		CreateService:      490 * sim.Millisecond,
		FirstOpenPenalty:   0,
		CloseService:       70 * sim.Millisecond,
		SeekService:        10 * sim.Millisecond,
		LsizeService:       2 * sim.Millisecond,
		FlushService:       10 * sim.Millisecond,
		SharedTokenService: 2 * sim.Millisecond,
	}
}

package pfs

import (
	"testing"
)

// group returns the nodes holding copies 0..rf-1 of a chunk with the given
// primary, in copy order.
func (pl *placer) group(primary, rf int) []int {
	out := make([]int, rf)
	for r := 0; r < rf; r++ {
		out[r] = pl.target(primary, r)
	}
	return out
}

// zonesOf labels n nodes round-robin-free: counts[z] nodes carry zone z, in
// index order (node 0..counts[0]-1 in zone 0, and so on) — the layout the
// scenario fleet templates generate.
func zonesOf(counts ...int) []int {
	var zones []int
	for z, c := range counts {
		for i := 0; i < c; i++ {
			zones = append(zones, z)
		}
	}
	return zones
}

// The identity ring: a homogeneous (single-zone) fleet at seed 0 must place
// copy r of primary p on node (p+r) mod N — copy 1 is exactly the legacy
// (i+1) mod N mirror.
func TestPlacementLegacyEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16} {
		pl := newPlacer(make([]int, n), 0)
		for p := 0; p < n; p++ {
			for r := 0; r < n && r < MaxReplicationFactor; r++ {
				if got, want := pl.target(p, r), (p+r)%n; got != want {
					t.Errorf("n=%d target(%d,%d) = %d, want %d", n, p, r, got, want)
				}
			}
		}
	}
}

// Bijection: for every copy index r, target(·, r) must be a permutation of
// the fleet and primaryOf must invert it — the corruption ledger and repair
// daemon both map replica addresses back to their primaries.
func TestPlacementBijection(t *testing.T) {
	fleets := [][]int{
		zonesOf(8),          // homogeneous
		zonesOf(4, 4),       // two balanced zones
		zonesOf(3, 3, 3),    // three balanced zones
		zonesOf(5, 2, 1),    // skewed
		zonesOf(1, 1, 1, 1), // one node per zone
		{2, 0, 2, 0, 1},     // interleaved declaration order
	}
	for _, zones := range fleets {
		for _, seed := range []uint64{0, 1, 42, 1 << 60} {
			pl := newPlacer(zones, seed)
			n := len(zones)
			for r := 0; r < MaxReplicationFactor; r++ {
				seen := make([]bool, n)
				for p := 0; p < n; p++ {
					tgt := pl.target(p, r)
					if tgt < 0 || tgt >= n {
						t.Fatalf("zones=%v seed=%d target(%d,%d) = %d out of range", zones, seed, p, r, tgt)
					}
					if seen[tgt] {
						t.Fatalf("zones=%v seed=%d copy %d not a permutation: node %d hit twice", zones, seed, r, tgt)
					}
					seen[tgt] = true
					if inv := pl.primaryOf(tgt, r); inv != p {
						t.Fatalf("zones=%v seed=%d primaryOf(%d,%d) = %d, want %d", zones, seed, tgt, r, inv, p)
					}
				}
			}
		}
	}
}

// Zone spread: over balanced zones, the first min(rf, zones) copies of every
// chunk must land in distinct outage domains — that is the invariant that
// makes a full zone loss survivable at RF >= 2.
func TestPlacementZoneSpreadBalanced(t *testing.T) {
	cases := []struct {
		zones []int
		rf    int
	}{
		{zonesOf(4, 4), 2},
		{zonesOf(4, 4, 4), 3},
		{zonesOf(2, 2, 2, 2), 4},
		{zonesOf(8, 8), 2},
		{zonesOf(3, 3, 3), 3},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{0, 7, 99} {
			pl := newPlacer(tc.zones, seed)
			for p := range tc.zones {
				used := map[int]bool{}
				for _, node := range pl.group(p, tc.rf) {
					z := tc.zones[node]
					if used[z] {
						t.Fatalf("zones=%v seed=%d rf=%d primary %d: group %v reuses zone %d",
							tc.zones, seed, tc.rf, p, pl.group(p, tc.rf), z)
					}
					used[z] = true
				}
			}
		}
	}
}

// Heterogeneous (skewed) fleets cannot always alternate zones, but each
// chunk's copy group must still cover as many distinct zones as possible:
// min(rf, zone count) distinct domains whenever the largest zone doesn't
// dominate the ring.
func TestPlacementZoneSpreadSkewed(t *testing.T) {
	// 6+2: ring interleaves 0 1 0 1 0 1 0 0 — pairs starting in the
	// alternating prefix spread, and every RF=2 group that can spread does.
	zones := zonesOf(6, 2)
	pl := newPlacer(zones, 0)
	spread := 0
	for p := range zones {
		g := pl.group(p, 2)
		if zones[g[0]] != zones[g[1]] {
			spread++
		}
	}
	// 8 primaries; at most 2*min(|z0|,|z1|) = 4 adjacencies cross zones on
	// the ring, so expect exactly 4 spread pairs.
	if spread != 4 {
		t.Errorf("6+2 fleet: %d/8 RF=2 groups cross zones, want 4", spread)
	}

	// A zone with a strict majority still never co-locates two copies on the
	// same *node* (bijection) and spreads wherever the interleave allows.
	zones = zonesOf(5, 1, 1)
	pl = newPlacer(zones, 0)
	for p := range zones {
		g := pl.group(p, 3)
		if g[0] == g[1] || g[1] == g[2] || g[0] == g[2] {
			t.Fatalf("5+1+1 fleet: group %v reuses a node", g)
		}
	}
}

// Determinism: the same zones and seed must always build the same ring, and
// different seeds must (for a multi-node zone) reorder within zones without
// ever breaking the interleave structure.
func TestPlacementDeterminismAcrossSeeds(t *testing.T) {
	zones := zonesOf(4, 4)
	for _, seed := range []uint64{0, 1, 2, 3, 1234567} {
		a := newPlacer(zones, seed)
		b := newPlacer(zones, seed)
		for p := range zones {
			for r := 0; r < MaxReplicationFactor; r++ {
				if a.target(p, r) != b.target(p, r) {
					t.Fatalf("seed %d not deterministic at (%d,%d)", seed, p, r)
				}
			}
		}
		// The interleave invariant holds at every seed: ring neighbours
		// alternate zones on a balanced two-zone fleet.
		for i := range a.ring {
			if zones[a.ring[i]] == zones[a.ring[(i+1)%len(a.ring)]] {
				t.Fatalf("seed %d ring %v: neighbours share a zone", seed, a.ring)
			}
		}
	}
	// Seeds actually permute: some seed must differ from the unseeded ring.
	base := newPlacer(zones, 0)
	differs := false
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		pl := newPlacer(zones, seed)
		for i := range pl.ring {
			if pl.ring[i] != base.ring[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("no seed in 1..5 permutes the ring; shuffle is inert")
	}
}

// The FileSystem-level wiring: zones from Config.Nodes reach the placer, and
// the effective factor normalizes against failover and fleet size.
func TestPlacementFromConfig(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Failover = DefaultFailoverConfig()
		c.Replication = ReplicationConfig{Factor: 3}
		c.Nodes = []NodeConfig{{Zone: 0}, {Zone: 0}, {Zone: 1}, {Zone: 1}}
	})
	if got := r.fs.ReplicationFactor(); got != 3 {
		t.Fatalf("ReplicationFactor = %d, want 3", got)
	}
	pl := r.fs.plc
	zones := []int{0, 0, 1, 1}
	for p := range zones {
		g := pl.group(p, 2)
		if zones[g[0]] == zones[g[1]] {
			t.Errorf("primary %d: first two copies %v share zone %d", p, g, zones[g[0]])
		}
	}

	// Factor clamps to the fleet and collapses without failover.
	r2 := newRig(t, func(c *Config) {
		c.IONodes = 2
		c.Failover = DefaultFailoverConfig()
		c.Replication = ReplicationConfig{Factor: 4}
	})
	if got := r2.fs.ReplicationFactor(); got != 2 {
		t.Errorf("factor over 2-node fleet = %d, want clamp to 2", got)
	}
	r3 := newRig(t, func(c *Config) {
		c.Replication = ReplicationConfig{Factor: 3}
	})
	if got := r3.fs.ReplicationFactor(); got != 1 {
		t.Errorf("factor without failover = %d, want 1", got)
	}
}

// FuzzPlacement drives newPlacer with arbitrary fleet shapes and seeds and
// checks the structural invariants: every rotation is a bijection that
// primaryOf inverts, the ring is a permutation of the fleet, and over
// balanced zones consecutive copies never share a domain.
func FuzzPlacement(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint64(0), uint8(2))
	f.Add(uint8(8), uint8(2), uint64(1), uint8(3))
	f.Add(uint8(9), uint8(3), uint64(42), uint8(3))
	f.Add(uint8(6), uint8(2), uint64(1<<40), uint8(4))
	f.Add(uint8(5), uint8(4), uint64(7), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw, zRaw uint8, seed uint64, rfRaw uint8) {
		n := int(nRaw)%32 + 1
		nz := int(zRaw)%4 + 1
		if nz > n {
			nz = n
		}
		rf := int(rfRaw)%MaxReplicationFactor + 1
		if rf > n {
			rf = n
		}
		zones := make([]int, n)
		for i := range zones {
			zones[i] = i % nz
		}
		pl := newPlacer(zones, seed)

		// Ring is a permutation of 0..n-1 and pos inverts it.
		if len(pl.ring) != n {
			t.Fatalf("ring length %d, want %d", len(pl.ring), n)
		}
		seen := make([]bool, n)
		for i, node := range pl.ring {
			if node < 0 || node >= n || seen[node] {
				t.Fatalf("ring %v is not a permutation", pl.ring)
			}
			seen[node] = true
			if pl.pos[node] != i {
				t.Fatalf("pos[%d] = %d, want %d", node, pl.pos[node], i)
			}
		}

		// Every rotation is a bijection with a working inverse.
		for r := 0; r < rf; r++ {
			hit := make([]bool, n)
			for p := 0; p < n; p++ {
				tgt := pl.target(p, r)
				if hit[tgt] {
					t.Fatalf("copy %d maps two primaries to node %d", r, tgt)
				}
				hit[tgt] = true
				if pl.primaryOf(tgt, r) != p {
					t.Fatalf("primaryOf(target(%d,%d),%d) != %d", p, r, r, p)
				}
			}
		}

		// Balanced zones (n divisible by nz, round-robin labels): the first
		// min(rf, nz) copies sit in distinct zones.
		if n%nz == 0 {
			spread := rf
			if nz < spread {
				spread = nz
			}
			for p := 0; p < n; p++ {
				used := map[int]bool{}
				for r := 0; r < spread; r++ {
					z := zones[pl.target(p, r)]
					if used[z] {
						t.Fatalf("n=%d nz=%d seed=%d primary %d: copies 0..%d reuse zone %d",
							n, nz, seed, p, spread-1, z)
					}
					used[z] = true
				}
			}
		}

		// Determinism: rebuilding with the same inputs gives the same ring.
		pl2 := newPlacer(zones, seed)
		for i := range pl.ring {
			if pl.ring[i] != pl2.ring[i] {
				t.Fatal("placer is not deterministic")
			}
		}
	})
}

// TestReplicaStreamsAreDistinct checks that replicaStream numbers every
// (file, copy) pair differently, so no two copies share a stream's
// sequential detection or cache state, and that the numbers are dense: the
// first n files' copies fill 0..n*MaxReplicationFactor-1.
func TestReplicaStreamsAreDistinct(t *testing.T) {
	const files = 1 << 12
	type pair struct {
		fid int64
		r   int
	}
	seen := make(map[int64]pair, files*MaxReplicationFactor)
	for fid := int64(0); fid < files; fid++ {
		for r := 0; r < MaxReplicationFactor; r++ {
			s := replicaStream(fid, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("file %d copy %d and file %d copy %d share stream %d", fid, r, prev.fid, prev.r, s)
			}
			if s < 0 || s >= files*MaxReplicationFactor {
				t.Fatalf("file %d copy %d: stream %d outside [0, %d)", fid, r, s, files*MaxReplicationFactor)
			}
			seen[s] = pair{fid, r}
		}
	}
}

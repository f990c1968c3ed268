package pfs

import (
	"testing"

	"repro/internal/ionode"
	"repro/internal/iotrace"
)

// fuzzFS builds the minimal FileSystem skeleton the striping math reads:
// a stripe unit, an I/O-node count and the placement ring. The nodes
// themselves are never touched — only len(fs.ion) matters to the mapping.
// The ring is the identity ring New builds for a homogeneous unseeded fleet.
func fuzzFS(nion int, su int64) *FileSystem {
	return &FileSystem{
		cfg: Config{StripeUnit: su},
		ion: make([]*ionode.Node, nion),
		plc: newPlacer(make([]int, nion), 0),
		rf:  1,
	}
}

// FuzzStripeRoundtrip checks that fileOffset is the exact inverse of the
// stripeIONode + arrayAddr placement for every file offset, on the primary
// copy and every replica slot the placement ring can assign. The corruption
// ledger depends on this roundtrip: a corrupt block is harvested in file
// coordinates at restart and re-injected through the forward mapping.
func FuzzStripeRoundtrip(f *testing.F) {
	f.Add(uint16(0), uint8(15), uint32(64*1024), uint64(0))
	f.Add(uint16(3), uint8(15), uint32(64*1024), uint64(200_000))
	f.Add(uint16(7), uint8(0), uint32(1), uint64(12345))       // single node, 1-byte stripes
	f.Add(uint16(1023), uint8(63), uint32(512), uint64(1<<29)) // large offset, many nodes
	f.Add(uint16(42), uint8(7), uint32(4096), uint64(4095))    // last byte of stripe 0
	f.Fuzz(func(t *testing.T, idRaw uint16, nionRaw uint8, suRaw uint32, offRaw uint64) {
		nion := int(nionRaw%64) + 1
		su := int64(suRaw%(1<<20)) + 1
		off := int64(offRaw % (1 << 30))
		id := iotrace.FileID(idRaw % 1024)

		fs := fuzzFS(nion, su)
		// Mirror newFile's placement rule without building a live machine.
		file := &File{fs: fs, id: id, firstIONode: int(id) % nion}

		stripe := off / su
		within := off % su
		node := file.stripeIONode(stripe, nion)
		if node < 0 || node >= nion {
			t.Fatalf("stripe %d mapped to node %d of %d", stripe, node, nion)
		}
		addr := file.arrayAddr(stripe, within, nion, su)
		local := addr - int64(id)<<34
		if local < 0 || local > localAddrMask {
			t.Fatalf("local address %d escapes the per-file region (mask %d)",
				local, localAddrMask)
		}

		for r := 0; r < MaxReplicationFactor; r++ {
			copyNode := fs.plc.target(node, r)
			if got := fs.fileOffset(file, copyNode, local, r); got != off {
				t.Fatalf("copy %d roundtrip: offset %d -> node %d local %d -> %d",
					r, off, copyNode, local, got)
			}
		}

		// The identity ring reproduces the legacy neighbour placement: copy 1
		// of node i lives on (i+1) mod N.
		if got := fs.plc.target(node, 1); got != (node+1)%nion {
			t.Fatalf("identity ring places copy 1 of %d on %d, want %d", node, got, (node+1)%nion)
		}

		// Replica address tags round-trip and never collide with the base
		// address bits.
		for r := 0; r < MaxReplicationFactor; r++ {
			base, gotR := splitReplicaAddr(replicaAddr(addr, r))
			if base != addr || gotR != r {
				t.Fatalf("replica tag roundtrip: (%d,%d) -> (%d,%d)", addr, r, base, gotR)
			}
		}

		// Consecutive stripes of one file on the same node are adjacent in its
		// array address space — the property the positioning-time model needs.
		nextSameNode := stripe + int64(nion)
		if file.stripeIONode(nextSameNode, nion) != node {
			t.Fatalf("stripe %d and %d not on the same node", stripe, nextSameNode)
		}
		if got := file.arrayAddr(nextSameNode, 0, nion, su); got != file.arrayAddr(stripe, 0, nion, su)+su {
			t.Fatalf("same-node stripes not adjacent: %d then %d (su %d)",
				file.arrayAddr(stripe, 0, nion, su), got, su)
		}

		// Adjacent file offsets never invert: walking forward through the file
		// walks forward within each node's region.
		if off+1 < int64(1)<<30 && (off+1)/su == stripe {
			if got := file.arrayAddr(stripe, within+1, nion, su); got != addr+1 {
				t.Fatalf("intra-stripe step: addr %d then %d", addr, got)
			}
		}
	})
}

// FuzzFileOffsetForward feeds fileOffset arbitrary (node, local, copy)
// triples and requires the forward mapping to reproduce them — the inverse
// direction of FuzzStripeRoundtrip, covering locals that no real offset
// produced.
func FuzzFileOffsetForward(f *testing.F) {
	f.Add(uint16(0), uint8(15), uint32(64*1024), uint8(3), uint64(64*1024*5+17), uint8(0))
	f.Add(uint16(9), uint8(7), uint32(4096), uint8(0), uint64(0), uint8(1))
	f.Add(uint16(511), uint8(31), uint32(512), uint8(200), uint64(1<<20), uint8(3))
	f.Fuzz(func(t *testing.T, idRaw uint16, nionRaw uint8, suRaw uint32, nodeRaw uint8, localRaw uint64, replicaRaw uint8) {
		nion := int(nionRaw%64) + 1
		su := int64(suRaw%(1<<20)) + 1
		node := int(nodeRaw) % nion
		local := int64(localRaw % (1 << 30))
		id := iotrace.FileID(idRaw % 1024)
		replica := int(replicaRaw) % MaxReplicationFactor

		fs := fuzzFS(nion, su)
		file := &File{fs: fs, id: id, firstIONode: int(id) % nion}

		off := fs.fileOffset(file, node, local, replica)
		if off < 0 {
			t.Fatalf("negative file offset %d from node %d local %d", off, node, local)
		}
		stripe := off / su
		primary := file.stripeIONode(stripe, nion)
		if wantNode := fs.plc.target(primary, replica); wantNode != node {
			t.Fatalf("offset %d (stripe %d) places copy %d on node %d, came from node %d",
				off, stripe, replica, wantNode, node)
		}
		if got := file.arrayAddr(stripe, off%su, nion, su) - int64(id)<<34; got != local {
			t.Fatalf("forward remap of offset %d gives local %d, want %d", off, got, local)
		}
	})
}

// Package disk models the RAID-3 disk arrays attached to each Paragon I/O
// node: five 1.2 GB drives behind a single controller, byte-striped with a
// dedicated parity drive, so every array request engages all spindles and the
// array behaves like one disk with ~4x the transfer rate (§3.2 of the paper).
//
// The model charges positioning time when an access does not continue
// sequentially from the previous one, plus serialized transfer at the array
// bandwidth, plus a fixed per-request controller overhead. Those three terms
// are what shaped the paper's findings: small non-sequential requests are
// dominated by positioning and overhead, while large sequential requests
// approach array bandwidth — the "impedance mismatch" §8 discusses.
//
// Per-stream sequential detection (Service's stream/addr arguments) is relied
// on by the layers above: ionode.BlockIO passes application streams through
// unchanged, and the internal/cache layer deliberately issues block-aligned
// fetches and flushes as single contiguous ascending runs per stream, so a
// cached workload looks *more* sequential to the array, never less.
package disk

import (
	"fmt"

	"repro/internal/sim"
)

// drives is the number of drives in every array, parity included: the
// Paragon's five.
const drives = 5

// ArrayConfig describes a RAID-3 array of five drives.
type ArrayConfig struct {
	DiskCapacity int64    // bytes per drive (paper: 1.2 GB)
	Position     sim.Time // average positioning (seek + rotation) time
	Overhead     sim.Time // fixed controller/firmware cost per request
	BWBytesPerS  float64  // sustained array data bandwidth, bytes/second

	// StreamCache is how many concurrent sequential streams the I/O node
	// can track (its readahead/write-behind buffer count). A request
	// continues sequentially only if its stream is still cached; with more
	// active files per array than buffers, every request pays positioning —
	// the regime the Hartree-Fock per-node files produce.
	StreamCache int
}

// Degraded-mode and rebuild constants of the array model.
const (
	// rebuildBWFraction is the share of the array data bandwidth a
	// background rebuild sustains while scanning the surviving drives onto
	// the replacement.
	rebuildBWFraction = 0.4

	// rebuildSliceBytes is the rebuild work quantum: the rebuild process
	// occupies the array for one slice at a time, so foreground requests
	// interleave with (and are delayed by) rebuild passes.
	rebuildSliceBytes = 4 << 20
)

// DefaultArrayConfig returns parameters representative of the CCSF Paragon's
// RAID-3 arrays: 5 x 1.2 GB drives, ~15 ms positioning, ~10 MB/s streaming,
// and buffers for 4 concurrent streams.
func DefaultArrayConfig() ArrayConfig {
	return ArrayConfig{
		DiskCapacity: 1_200_000_000,
		Position:     15 * sim.Millisecond,
		Overhead:     2 * sim.Millisecond,
		BWBytesPerS:  10e6,
		StreamCache:  4,
	}
}

// stream is one tracked sequential stream.
type stream struct {
	key     int64
	lastEnd int64
}

// Array is the state of one RAID-3 array: its configuration plus the
// per-stream positions implied by recent requests, used for sequential-access
// detection, plus the redundancy state driven by fault injection (healthy,
// degraded with one failed drive, or dead with two).
type Array struct {
	cfg     ArrayConfig
	streams []stream // most-recently-used first, capped at cfg.StreamCache

	// redundancy state
	failedDisks  int
	rebuiltBytes int64 // rebuild progress toward cfg.DiskCapacity
	failedAt     sim.Time

	// statistics
	requests    int64
	bytes       int64
	seqRequests int64
	busy        sim.Time

	degradedRequests int64
	degradedTime     sim.Time // accumulated wall time spent degraded or dead
	rebuilds         int64

	repairs     int64 // parity block reconstructions (integrity layer)
	repairBytes int64
	scrubReads  int64 // background-scrub verification reads
	scrubBytes  int64
}

// NewArray creates an array with no tracked streams (the first request of
// every stream pays positioning).
func NewArray(cfg ArrayConfig) *Array {
	if cfg.BWBytesPerS <= 0 {
		panic("disk: non-positive bandwidth")
	}
	if cfg.StreamCache < 1 {
		cfg.StreamCache = 1
	}
	return &Array{cfg: cfg}
}

// Capacity returns the usable data capacity (all drives minus parity).
func (a *Array) Capacity() int64 {
	return int64(drives-1) * a.cfg.DiskCapacity
}

// Service computes the time to service a request, distinguishing reads from
// writes because the two differ once the array is degraded: a degraded read
// must fetch every surviving drive's lane and XOR the failed drive's data
// back into existence — the transfer slows by (D-1)/(D-2) and pays a
// reconstruction overhead — while a degraded write simply skips the failed
// lane (parity still makes the data recoverable), so writes stay at healthy
// cost. On a healthy array reads and writes are charged identically, so the
// healthy path is bit-for-bit unchanged by the read flag.
func (a *Array) Service(streamKey, addr, bytes int64, read bool) sim.Time {
	if addr < 0 || bytes < 0 {
		panic(fmt.Sprintf("disk: invalid request addr=%d bytes=%d", addr, bytes))
	}
	if a.Dead() {
		panic("disk: request on dead array (two failed drives)")
	}
	t := a.cfg.Overhead
	if a.touch(streamKey, addr) {
		a.seqRequests++
	} else {
		t += a.cfg.Position
	}
	a.setEnd(streamKey, addr+bytes)
	transfer := sim.Time(float64(bytes) / a.cfg.BWBytesPerS * float64(sim.Second))
	if read && a.failedDisks > 0 {
		t += a.reconstructOverhead()
		transfer = sim.Time(float64(transfer) * a.DegradedReadFactor())
		a.degradedRequests++
	} else if a.failedDisks > 0 {
		a.degradedRequests++
	}
	t += transfer
	a.requests++
	a.bytes += bytes
	a.busy += t
	return t
}

// DegradedReadFactor is the multiplier a degraded read's transfer time pays
// for parity reconstruction: with D drives (one of them parity), losing one
// data drive leaves D-2 of the D-1 data lanes, so the effective data rate
// drops to (D-2)/(D-1) of healthy.
func (a *Array) DegradedReadFactor() float64 {
	return float64(drives-1) / float64(drives-2)
}

// reconstructOverhead is the extra controller cost a degraded-mode read pays
// per request to XOR the surviving drives' lanes back into the failed drive's
// data: half the request overhead.
func (a *Array) reconstructOverhead() sim.Time { return a.cfg.Overhead / 2 }

// RepairService is the time for an in-place parity reconstruction of a
// corrupt block: the controller reads the surviving drives' lanes (paying the
// degraded-read slowdown even on a healthy array — the suspect lane is
// excluded), XORs the block back into existence, and rewrites it. The caller
// (the I/O node's integrity check or scrubber) must hold the request queue
// for the returned duration. It panics on a dead array, where no parity
// remains to repair from.
func (a *Array) RepairService(bytes int64) sim.Time {
	if bytes < 0 {
		panic(fmt.Sprintf("disk: invalid repair bytes=%d", bytes))
	}
	if a.Dead() {
		panic("disk: repair on dead array (two failed drives)")
	}
	transfer := sim.Time(float64(bytes) / a.cfg.BWBytesPerS * float64(sim.Second))
	t := a.cfg.Overhead + a.reconstructOverhead() +
		sim.Time(float64(transfer)*a.DegradedReadFactor()) + // read surviving lanes
		transfer // rewrite the reconstructed block
	a.repairs++
	a.repairBytes += bytes
	a.busy += t
	return t
}

// ScrubRead is the time for one background-scrub verification read of bytes:
// one positioning (the scrub cursor rarely continues a foreground stream),
// one controller overhead, and the transfer. It deliberately bypasses the
// sequential-stream tracker so scrub traffic never perturbs foreground
// sequential detection. The caller must hold the request queue.
func (a *Array) ScrubRead(bytes int64) sim.Time {
	if bytes < 0 {
		panic(fmt.Sprintf("disk: invalid scrub bytes=%d", bytes))
	}
	t := a.cfg.Overhead + a.cfg.Position +
		sim.Time(float64(bytes)/a.cfg.BWBytesPerS*float64(sim.Second))
	a.scrubReads++
	a.scrubBytes += bytes
	a.busy += t
	return t
}

// SweepServiceTime services a sorted scatter-gather sweep: several disjoint
// requests submitted together and serviced in one arm pass — the disk side
// of PPFS's global request aggregation (§8: disjoint small requests "can be
// combined, significantly increasing disk efficiency"). The sweep pays one
// positioning and one controller overhead, the aggregate transfer, and a
// quarter-overhead per additional request for the scatter-gather bookkeeping.
func (a *Array) SweepServiceTime(streamKey, addr, bytes int64, requests int) sim.Time {
	if addr < 0 || bytes < 0 || requests < 1 {
		panic(fmt.Sprintf("disk: invalid sweep addr=%d bytes=%d requests=%d", addr, bytes, requests))
	}
	t := a.cfg.Overhead + sim.Time(requests-1)*a.cfg.Overhead/4
	if a.touch(streamKey, addr) {
		a.seqRequests++
	} else {
		t += a.cfg.Position
	}
	a.setEnd(streamKey, addr+bytes)
	t += sim.Time(float64(bytes) / a.cfg.BWBytesPerS * float64(sim.Second))
	a.requests += int64(requests)
	a.bytes += bytes
	a.busy += t
	return t
}

// touch looks the stream up, moving it to the front; it reports whether the
// request at addr continues the stream sequentially.
func (a *Array) touch(key, addr int64) bool {
	for i := range a.streams {
		if a.streams[i].key == key {
			s := a.streams[i]
			copy(a.streams[1:i+1], a.streams[:i])
			a.streams[0] = s
			return s.lastEnd == addr
		}
	}
	// Not tracked: install at front, evicting the least recently used.
	if len(a.streams) < a.cfg.StreamCache {
		a.streams = append(a.streams, stream{})
	}
	copy(a.streams[1:], a.streams[:len(a.streams)-1])
	a.streams[0] = stream{key: key, lastEnd: -1}
	return false
}

func (a *Array) setEnd(key, end int64) {
	// touch always leaves the stream at the front.
	a.streams[0].lastEnd = end
}

// FailDisk takes one drive out of the array at the given instant. The first
// failure flips the array into degraded mode and resets rebuild progress; a
// second failure while still degraded kills the array (RAID-3's single
// parity drive cannot cover two losses), after which requests must not be
// issued (see Dead).
func (a *Array) FailDisk(now sim.Time) {
	if a.failedDisks == 0 {
		a.failedAt = now
	}
	if a.failedDisks < 2 {
		a.failedDisks++
	}
	a.rebuiltBytes = 0
}

// Degraded reports whether exactly one drive is out (parity reconstruction
// active, rebuild possible).
func (a *Array) Degraded() bool { return a.failedDisks == 1 }

// Dead reports whether the array has lost more drives than parity covers.
func (a *Array) Dead() bool { return a.failedDisks >= 2 }

// RebuildSlice advances the background rebuild by one work quantum and
// returns the array time the slice occupies plus whether the rebuild (and
// therefore the array) is complete. The caller — the fault injector's
// rebuild process — must hold the array's request queue for the returned
// duration, which is how rebuild bandwidth contends with foreground
// requests. RebuildSlice on a dead or healthy array returns done without
// charging time.
func (a *Array) RebuildSlice(now sim.Time) (slice sim.Time, done bool) {
	if a.failedDisks != 1 {
		return 0, true
	}
	quantum := int64(rebuildSliceBytes)
	remaining := a.cfg.DiskCapacity - a.rebuiltBytes
	if quantum > remaining {
		quantum = remaining
	}
	bw := a.cfg.BWBytesPerS * rebuildBWFraction
	slice = sim.Time(float64(quantum) / bw * float64(sim.Second))
	a.rebuiltBytes += quantum
	a.busy += slice
	if a.rebuiltBytes >= a.cfg.DiskCapacity {
		a.repair(now + slice)
		return slice, true
	}
	return slice, false
}

// repair returns the array to healthy after a completed rebuild.
func (a *Array) repair(now sim.Time) {
	a.failedDisks = 0
	a.rebuiltBytes = 0
	a.rebuilds++
	a.degradedTime += now - a.failedAt
}

// RebuildProgress reports the fraction of the replacement drive rebuilt.
func (a *Array) RebuildProgress() float64 {
	if a.failedDisks != 1 || a.cfg.DiskCapacity == 0 {
		return 0
	}
	return float64(a.rebuiltBytes) / float64(a.cfg.DiskCapacity)
}

// Stats summarizes array activity.
type Stats struct {
	Requests   int64    // total requests serviced
	Sequential int64    // requests that continued sequentially (no positioning)
	Bytes      int64    // total bytes transferred
	Busy       sim.Time // total service time charged

	DegradedRequests int64    // requests serviced while a drive was out
	DegradedTime     sim.Time // completed degraded intervals (rebuilds finished)
	Rebuilds         int64    // rebuilds completed

	Repairs     int64 // parity block reconstructions (integrity layer)
	RepairBytes int64
	ScrubReads  int64 // background-scrub verification reads
	ScrubBytes  int64
}

// Stats returns accumulated activity counters. DegradedTime covers completed
// failure intervals only.
func (a *Array) Stats() Stats {
	return Stats{
		Requests: a.requests, Sequential: a.seqRequests, Bytes: a.bytes, Busy: a.busy,
		DegradedRequests: a.degradedRequests, DegradedTime: a.degradedTime, Rebuilds: a.rebuilds,
		Repairs: a.repairs, RepairBytes: a.repairBytes,
		ScrubReads: a.scrubReads, ScrubBytes: a.scrubBytes,
	}
}

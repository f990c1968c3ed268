// Package integrity is the end-to-end data-integrity layer of the storage
// model: a per-block checksum store attached to each I/O node's RAID-3 array,
// corruption bookkeeping for the fault injectors, and the detection/repair
// accounting the analysis layer reports.
//
// Like the rest of the simulation, blocks carry no payload. A block's
// "checksum" is a deterministic 64-bit hash of its identity and write
// version; corrupting a block perturbs the stored sum so that verification —
// recomputing the hash and comparing — mismatches, exactly as a real
// content checksum would. Three corruption classes model the three injectors:
//
//   - BitRot flips bits on a single drive's lane, so the RAID-3 parity drive
//     still holds enough information to reconstruct the block: bit-rot is
//     parity-repairable whenever the array is not already degraded.
//   - TornWrite persists only part of a physical write; the parity lane is
//     torn along with the data lanes, so parity is consistent with the torn
//     state and cannot repair it. Recovery needs a rewrite or a replica.
//   - MisdirectedWrite lands a write at the wrong address, overwriting a
//     victim block with well-formed but wrong data; parity matches the wrong
//     data, so again only a rewrite or a replica recovers it. The embedded
//     (block, version) identity in the checksum is what detects it.
//
// Every injected corruption is tracked as an Event from injection through
// detection (demand read, scrubber, restart verification, or the end-of-run
// audit) to resolution (parity repair, overwrite, or still-open —
// unrepairable). The zero Config disables the layer entirely and leaves the
// data path bit-identical to a build without it.
package integrity

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// ErrCorrupt is returned by a read that detected an unrepairable checksum
// mismatch. The PFS client reliability layer treats it like a dead node:
// retry against the replica, then heal the primary with a repair write.
var ErrCorrupt = errors.New("integrity: unrepairable checksum mismatch")

// Class labels a corruption's physical cause, which determines whether
// RAID-3 parity can repair it.
type Class int

const (
	ClassNone   Class = iota
	BitRot            // single-lane flip: parity-repairable
	TornWrite         // partial stripe persisted: parity torn too
	Misdirected       // block landed at the wrong offset: parity consistent
)

// String returns the class's report label.
func (c Class) String() string {
	switch c {
	case BitRot:
		return "bit-rot"
	case TornWrite:
		return "torn-write"
	case Misdirected:
		return "misdirected-write"
	}
	return fmt.Sprintf("integrity.Class(%d)", int(c))
}

// Repairable reports whether RAID-3 parity can reconstruct this class (on a
// non-degraded array).
func (c Class) Repairable() bool { return c == BitRot }

// Checksum is the deterministic 64-bit block hash: a splitmix-style mix of
// the block identity and its write version, standing in for a content hash
// over the (payload-free) block.
func Checksum(block int64, version uint64) uint64 {
	x := uint64(block)*0x9e3779b97f4a7c15 + version*0xbf58476d1ce4e5b9
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Resolution is how a corruption event ended.
type Resolution int

const (
	ResOpen           Resolution = iota // still corrupt (latent or detected-unrepairable)
	ResRepairedParity                   // reconstructed from surviving lanes + parity
	ResRewritten                        // cleared by a later write of the block
)

// String returns the resolution's report label.
func (r Resolution) String() string {
	switch r {
	case ResRepairedParity:
		return "parity-repaired"
	case ResRewritten:
		return "rewritten"
	}
	return "open"
}

// Event is one corruption's lifetime on this store, from injection to
// resolution.
type Event struct {
	Node       int
	Block      int64
	Class      Class
	InjectedAt sim.Time
	Detected   bool
	DetectedAt sim.Time
	DetectedBy string // "read", "scrub", "restart", "audit"
	Resolution Resolution
	ResolvedAt sim.Time
	Carried    bool // re-injected from a previous attempt (restart ledger)
}

// Detection is one corrupt block found by a read, reported to the I/O node so
// it can charge the repair or fail the request.
type Detection struct {
	Block int64
	Class Class
}

// blockSum is one block's integrity state.
type blockSum struct {
	version  uint64
	sum      uint64 // stored checksum; != Checksum(idx, version) when corrupt
	class    Class  // non-zero while latent corruption is present
	detected bool
	eventIdx int // open event in Store.events, valid while class != ClassNone
}

func (b *blockSum) corrupt() bool { return b.class != ClassNone }

// injection is the seeded write-path corruption policy armed by the fault
// injector.
type injection struct {
	tornProb      float64
	misdirectProb float64
	rng           *sim.RNG
}

// Store is one I/O node's checksum store: per-block write versions and stored
// sums for every block ever written through the node.
type Store struct {
	node       int
	cfg        Config
	blockBytes int64 // checksum granule

	blocks map[int64]*blockSum
	inj    *injection

	// written lists every block index in blocks. Indices mostly arrive in
	// ascending order (sequential writes), so creation appends and marks the
	// list dirty only on out-of-order arrival; ordered consumers re-sort
	// lazily via sortedWritten. This keeps the scrubber's per-slice cost at a
	// binary search instead of a full map scan and sort.
	written  []int64
	unsorted bool

	scrubCursor int64
	scrubBuf    []int64 // reusable slice handed out by ScrubNext

	events []Event
	s      Stats
}

// NewStore creates the checksum store for I/O node `node` with a normalized
// config, one sum per blockBytes.
func NewStore(node int, cfg Config, blockBytes int64) *Store {
	return &Store{node: node, cfg: cfg, blockBytes: blockBytes, blocks: make(map[int64]*blockSum)}
}

// Config returns the store's (normalized) configuration.
func (st *Store) Config() Config { return st.cfg }

// BlockBytes returns the checksum granule size.
func (st *Store) BlockBytes() int64 { return st.blockBytes }

// ResidentBytes returns the bytes of tracked (ever-written) data — the
// exposure base for the bit-rot arrival process.
func (st *Store) ResidentBytes() int64 {
	return int64(len(st.blocks)) * st.blockBytes
}

// VerifyCost is the node time to checksum (on write) or verify (on read)
// `bytes` of data: a fixed per-request overhead plus the data at the
// configured checksum-compute bandwidth.
func (st *Store) VerifyCost(bytes int64) sim.Time {
	return verifyOverhead +
		sim.Time(float64(bytes)/verifyBWBytesPerS*float64(sim.Second))
}

// span returns the inclusive block-index range overlapped by [addr, addr+n).
func (st *Store) span(addr, n int64) (first, last int64) {
	bs := st.blockBytes
	return addr / bs, (addr + n - 1) / bs
}

// track records a newly created block index. Must be called exactly once per
// index, when it first enters st.blocks.
func (st *Store) track(idx int64) {
	if n := len(st.written); n > 0 && idx < st.written[n-1] {
		st.unsorted = true
	}
	st.written = append(st.written, idx)
}

// sortedWritten returns the ascending list of every written block index,
// re-sorting in place only when out-of-order creations have landed since the
// last ordered read. Callers must not hold the slice across simulated time.
func (st *Store) sortedWritten() []int64 {
	if st.unsorted {
		sort.Slice(st.written, func(i, j int) bool { return st.written[i] < st.written[j] })
		st.unsorted = false
	}
	return st.written
}

// Arm installs the seeded write-path corruption policy (torn and misdirected
// writes). Called by the fault injector before the run.
func (st *Store) Arm(tornProb, misdirectProb float64, rng *sim.RNG) {
	if tornProb <= 0 && misdirectProb <= 0 {
		return
	}
	st.inj = &injection{tornProb: tornProb, misdirectProb: misdirectProb, rng: rng}
}

// CommitWrite records a write of [addr, addr+n): every overlapped block's
// version advances and its stored sum is recomputed, which clears any latent
// corruption (an overwrite destroys the corrupt data). With an armed
// injection policy, the write may itself be torn (its last block persisted
// partially) or misdirected (a random resident victim block overwritten).
// Call with the request's completion time, while holding the node queue.
func (st *Store) CommitWrite(now sim.Time, addr, n int64) {
	if n <= 0 {
		return
	}
	first, last := st.span(addr, n)
	for idx := first; idx <= last; idx++ {
		st.writeBlock(now, idx)
	}
	st.s.ChecksummedWrites += last - first + 1
	if st.inj == nil {
		return
	}
	// Fixed draw order keeps the schedule a pure function of the write
	// sequence: torn first, then misdirect.
	if st.inj.tornProb > 0 && st.inj.rng.Float64() < st.inj.tornProb {
		st.corruptBlock(now, last, TornWrite, false)
	}
	if st.inj.misdirectProb > 0 && st.inj.rng.Float64() < st.inj.misdirectProb {
		if victim, ok := st.pickVictim(first, last); ok {
			st.corruptBlock(now, victim, Misdirected, false)
		}
	}
}

// writeBlock applies one block's write: version bump, fresh sum, corruption
// cleared.
func (st *Store) writeBlock(now sim.Time, idx int64) {
	b := st.blocks[idx]
	if b == nil {
		b = &blockSum{}
		st.blocks[idx] = b
		st.track(idx)
	}
	if b.corrupt() {
		st.resolve(now, b, ResRewritten)
	}
	b.version++
	b.sum = Checksum(idx, b.version)
}

// pickVictim selects a deterministic random resident block outside
// [first, last] as a misdirected write's landing site.
func (st *Store) pickVictim(first, last int64) (int64, bool) {
	// Candidates are the written blocks outside [first, last]: the ascending
	// list with the span [lo, hi) cut out. Indexing around the gap draws the
	// same victim the explicit filtered-and-sorted copy used to.
	all := st.sortedWritten()
	lo := sort.Search(len(all), func(k int) bool { return all[k] >= first })
	hi := sort.Search(len(all), func(k int) bool { return all[k] > last })
	n := len(all) - (hi - lo)
	if n == 0 {
		return 0, false
	}
	k := st.inj.rng.Intn(n)
	if k < lo {
		return all[k], true
	}
	return all[k-lo+hi], true
}

// InjectBitRot corrupts one uniformly chosen resident non-corrupt block with
// bit-rot; it reports whether a victim existed. Driven by the fault
// injector's per-node exponential arrival process.
func (st *Store) InjectBitRot(now sim.Time, rng *sim.RNG) bool {
	all := st.sortedWritten()
	cands := make([]int64, 0, len(all))
	for _, idx := range all {
		if !st.blocks[idx].corrupt() {
			cands = append(cands, idx)
		}
	}
	if len(cands) == 0 {
		return false
	}
	st.corruptBlock(now, cands[rng.Intn(len(cands))], BitRot, false)
	return true
}

// MarkCorrupt re-injects latent corruption carried over from a previous
// attempt (the restart ledger): every block overlapping [addr, addr+n) is
// corrupted with the given class, creating block state if the extent was
// only preloaded. No-op on blocks already corrupt.
func (st *Store) MarkCorrupt(now sim.Time, addr, n int64, class Class) {
	if n <= 0 || class == ClassNone {
		return
	}
	first, last := st.span(addr, n)
	for idx := first; idx <= last; idx++ {
		b := st.blocks[idx]
		if b == nil {
			b = &blockSum{sum: Checksum(idx, 0)}
			st.blocks[idx] = b
			st.track(idx)
		}
		if b.corrupt() {
			continue
		}
		st.corruptBlock(now, idx, class, true)
	}
}

// corruptBlock flips a block's stored sum and opens its event.
func (st *Store) corruptBlock(now sim.Time, idx int64, class Class, carried bool) {
	b := st.blocks[idx]
	if b == nil {
		b = &blockSum{sum: Checksum(idx, 0)}
		st.blocks[idx] = b
		st.track(idx)
	}
	if b.corrupt() {
		// One corruption at a time per block: the first is still latent and
		// its sum already mismatches; layering another adds no new event.
		return
	}
	b.class = class
	b.detected = false
	// Class-tagged perturbation: guaranteed to differ from every Checksum
	// value reachable by honest writes of this block.
	b.sum ^= 0x8000000000000001 + uint64(class)<<32
	b.eventIdx = len(st.events)
	st.events = append(st.events, Event{
		Node: st.node, Block: idx, Class: class, InjectedAt: now, Carried: carried,
	})
	st.s.Injected++
	st.s.InjectedByClass[class]++
	if carried {
		st.s.Carried++
	}
}

// resolve closes a block's open event.
func (st *Store) resolve(now sim.Time, b *blockSum, res Resolution) {
	ev := &st.events[b.eventIdx]
	ev.Resolution = res
	ev.ResolvedAt = now
	switch res {
	case ResRepairedParity:
		st.s.RepairedParity++
	case ResRewritten:
		if b.detected {
			st.s.HealedByRewrite++
		} else {
			st.s.ClearedUndetected++
		}
	}
	b.class = ClassNone
	b.detected = false
}

// detect marks a corrupt block found by `by`, counting first detections only.
func (st *Store) detect(now sim.Time, b *blockSum, by string) {
	if b.detected {
		return
	}
	b.detected = true
	ev := &st.events[b.eventIdx]
	ev.Detected = true
	ev.DetectedAt = now
	ev.DetectedBy = by
	switch by {
	case "read":
		st.s.DetectedRead++
	case "scrub":
		st.s.DetectedScrub++
	case "restart":
		st.s.DetectedRestart++
	case "audit":
		st.s.DetectedAudit++
	}
}

// CheckRead verifies every block overlapping a read of [addr, addr+n),
// counting the verification, and returns the corrupt blocks found (already
// marked detected). The caller — the I/O node — decides per detection
// whether parity repair applies (class and array state) and either charges
// the repair and calls Repair, or fails the read with ErrCorrupt.
func (st *Store) CheckRead(now sim.Time, addr, n int64) []Detection {
	if n <= 0 {
		return nil
	}
	first, last := st.span(addr, n)
	st.s.VerifiedBlocks += last - first + 1
	st.s.VerifiedBytes += n
	var dets []Detection
	for idx := first; idx <= last; idx++ {
		b := st.blocks[idx]
		if b == nil || b.sum == Checksum(idx, b.version) {
			continue
		}
		st.detect(now, b, "read")
		dets = append(dets, Detection{Block: idx, Class: b.class})
	}
	return dets
}

// Repair records a completed parity reconstruction of a block: its stored
// sum is recomputed from the surviving lanes and the event closes. `by` is
// the path that drove it ("read" or "scrub").
func (st *Store) Repair(now sim.Time, idx int64, by string) {
	b := st.blocks[idx]
	if b == nil || !b.corrupt() {
		return
	}
	st.detect(now, b, by)
	st.resolve(now, b, ResRepairedParity)
	b.sum = Checksum(idx, b.version)
	if by == "scrub" {
		st.s.ScrubRepairs++
	}
}

// ScrubNext returns up to max written block indices starting at the scrub
// cursor, in ascending order, advancing the cursor past them. When the
// cursor passes the last written block the pass wraps: wrapped is true, the
// cursor resets, and the next call starts over.
func (st *Store) ScrubNext(max int) (idxs []int64, wrapped bool) {
	if max <= 0 || len(st.blocks) == 0 {
		return nil, false
	}
	all := st.sortedWritten()
	i := sort.Search(len(all), func(k int) bool { return all[k] >= st.scrubCursor })
	if i == len(all) {
		st.scrubCursor = 0
		st.s.ScrubPasses++
		return nil, true
	}
	j := i + max
	if j > len(all) {
		j = len(all)
	}
	st.scrubCursor = all[j-1] + 1
	// Copy into the reusable buffer: the caller iterates the slice across
	// simulated time, during which new writes may dirty and re-sort written.
	st.scrubBuf = append(st.scrubBuf[:0], all[i:j]...)
	return st.scrubBuf, false
}

// ScrubCheck verifies one block on behalf of the scrubber and reports
// whether it is corrupt and its class. Detection is recorded; repair is the
// caller's job (it must charge array time).
func (st *Store) ScrubCheck(now sim.Time, idx int64) (Class, bool) {
	b := st.blocks[idx]
	if b == nil {
		return ClassNone, false
	}
	st.s.VerifiedBlocks++
	st.s.VerifiedBytes += st.blockBytes
	if b.sum == Checksum(idx, b.version) {
		return ClassNone, false
	}
	st.detect(now, b, "scrub")
	return b.class, true
}

// CountScrub accumulates one scrub slice's bookkeeping.
func (st *Store) CountScrub(blocks int64, took sim.Time) {
	st.s.ScrubbedBlocks += blocks
	st.s.ScrubTime += took
}

// CountCorruptRead counts one read request failed with ErrCorrupt.
func (st *Store) CountCorruptRead() { st.s.CorruptReads++ }

// VerifyExtent reports whether any block overlapping [addr, addr+n) holds
// latent corruption, marking detections with the given label ("restart" for
// checkpoint restart verification). It is a bookkeeping query — no
// simulation time — used where no process context exists.
func (st *Store) VerifyExtent(now sim.Time, addr, n int64, by string) bool {
	if n <= 0 {
		return false
	}
	first, last := st.span(addr, n)
	corrupt := false
	for idx := first; idx <= last; idx++ {
		b := st.blocks[idx]
		if b == nil || b.sum == Checksum(idx, b.version) {
			continue
		}
		st.detect(now, b, by)
		corrupt = true
	}
	return corrupt
}

// Audit is the end-of-run sweep: a full verification pass over every tracked
// block, charged no simulation time (the run is over — this is the report's
// bookkeeping, standing in for the scrub pass that would eventually reach
// these blocks). Corruption first found here was silent during the run.
// Parity-repairable blocks are repaired (when the array still has parity);
// the rest stay open — the unrepairable count of the report.
func (st *Store) Audit(now sim.Time, degraded bool) {
	for _, idx := range st.sortedWritten() {
		b := st.blocks[idx]
		if b.sum == Checksum(idx, b.version) {
			continue
		}
		st.detect(now, b, "audit")
		if b.class.Repairable() && !degraded {
			st.resolve(now, b, ResRepairedParity)
			b.sum = Checksum(idx, b.version)
			st.s.AuditRepairs++
		}
	}
}

// CorruptBlock is one still-corrupt block, for the restart ledger.
type CorruptBlock struct {
	Block int64
	Class Class
}

// CorruptBlocks returns the blocks still holding latent corruption, in
// ascending order.
func (st *Store) CorruptBlocks() []CorruptBlock {
	var out []CorruptBlock
	for _, idx := range st.sortedWritten() {
		if b := st.blocks[idx]; b.corrupt() {
			out = append(out, CorruptBlock{Block: idx, Class: b.class})
		}
	}
	return out
}

// Events returns the corruption event timeline, in injection order.
func (st *Store) Events() []Event {
	out := make([]Event, len(st.events))
	copy(out, st.events)
	return out
}

// Stats returns the accumulated counters, with the outstanding-corruption
// count computed at call time.
func (st *Store) Stats() Stats {
	s := st.s
	s.Node = st.node
	s.TrackedBlocks = int64(len(st.blocks))
	for _, b := range st.blocks {
		if b.corrupt() {
			s.OutstandingCorrupt++
			if b.detected {
				s.UnrepairableOpen++
			}
		}
	}
	return s
}

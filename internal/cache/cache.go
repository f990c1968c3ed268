// Package cache models a per-I/O-node block cache with LRU eviction,
// write-behind (dirty blocks flushed by a daemon that coalesces contiguous
// runs), and pattern-driven prefetch — the §8 remedies the paper argues the
// measured access patterns call for (caching, prefetching, write-behind
// matched to sequential/interleaved small requests).
//
// The cache sits between the I/O node's request queue and its RAID-3 array:
// hits are served from node memory without touching the array queue, misses
// fetch whole blocks (coalescing adjacent missing blocks into one array
// request), and write-behind absorbs writes at memory speed while a flush
// daemon writes dirty runs back in block order. Like the rest of the
// simulation it is a performance model: blocks carry no payload, only
// residency, dirtiness and stream identity.
//
// Determinism: every externally visible action happens in an order that is a
// pure function of the simulation state. Flushes and outage handling take
// dirty blocks in ascending block-index order (never hash-table order) from a
// per-stream dirty index, so two runs with the same seed produce
// bit-identical traces.
//
// Fault interaction: when the owning I/O node fails, dirty blocks are either
// synchronously drained to the array first (Config.FlushOnFail, the graceful
// handoff) or discarded and counted as lost — the application's recovery is
// the PFS failover/replica path, which re-reads or re-writes the data. All
// in-flight fetches are aborted so no reader waits on a dead node forever.
package cache

import (
	"errors"
	"slices"

	"repro/internal/integrity"
	"repro/internal/sim"
)

// Backend is the array-side interface the cache fetches and flushes
// through. An I/O node implements it with its queue + RAID service path.
type Backend interface {
	// BlockIO performs one contiguous transfer against the backing array,
	// charging queueing and service time to p.
	BlockIO(p *sim.Process, stream, addr, bytes int64, read bool) error
}

// block is one entry of the block index, keyed by block index (array
// address / block size); the synthetic array address space already makes
// indices unique per file. A resident entry holds data and sits in the LRU
// list. An entry with a fetch set is in flight: readers of it wait on the
// fetch. An entry can be both, when a write-behind install lands while its
// fetch is in flight, and briefly neither, between a fetch's end and its
// install, when it counts as absent.
type block struct {
	idx        int64
	stream     int64
	resident   bool
	dirty      bool
	prefetched bool   // fetched by readahead and not yet touched by demand
	fetch      *fetch // the fetch in flight for this index, or nil
	prev, next *block
}

// fetch is one in-flight array read: a coalesced demand run or a single
// prefetched block. Readers that find a block of it in flight wait on it,
// and all of them wake in arrival order when it completes or an outage
// aborts it. Records are pooled and only the fetch's owner (fetchRun or
// the prefetch daemon) returns one, after it is done with it, so an
// aborted owner never mistakes a reused record for its own.
type fetch struct {
	name    string // the cache's fetch or prefetch name, for the deadlock listing
	stream  int64
	run     []*block // the entries it covers, ascending; stale once done
	waiters []*sim.Process
	done    bool // fired: completed by its owner or aborted by an outage
}

// await parks p until f fires. The wait is listed as a completion, like a
// sim.Completion's.
func (f *fetch) await(p *sim.Process) {
	f.waiters = append(f.waiters, p)
	p.Park("completion", f.name)
}

// fire wakes f's waiters at the current instant in the order they arrived.
func (f *fetch) fire(p *sim.Process) {
	if f.done {
		panic("cache: fetch " + f.name + " fired twice")
	}
	f.done = true
	for _, w := range f.waiters {
		p.Wake(w)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
}

// Cache is one I/O node's block cache.
type Cache struct {
	eng        *sim.Engine
	cfg        Config
	blockBytes int64
	be         Backend

	capBlocks int64
	blocks    blockIndex // resident and in-flight entries
	nResident int        // resident entries, all in the LRU list
	head      *block     // most recently used
	tail      *block     // least recently used

	dirty dirtyIndex // the resident dirty blocks

	cls     *classifier
	pred    []int64 // scratch for the classifier's predictions
	pfQueue sim.FIFO[*fetch]
	pfLive  bool
	flLive  bool
	down    bool

	// Reused instead of allocated: evicted blocks, finished fetch records,
	// and the names and bodies of the daemons, which respawn on demand.
	spareBlocks  []*block
	spareFetches []*fetch
	fetchName    string
	pfName       string
	flushName    string
	prefetchName string
	flushFn      func(*sim.Process)
	prefetchFn   func(*sim.Process)

	s Stats
}

// New creates a cache of blockBytes blocks in front of backend be. The
// config is normalized (zero fields take defaults).
func New(eng *sim.Engine, name string, cfg Config, blockBytes int64, be Backend) *Cache {
	cfg = cfg.Normalized()
	capBlocks := cfg.CapacityBytes / blockBytes
	if capBlocks < 1 {
		capBlocks = 1
	}
	c := &Cache{
		eng:          eng,
		cfg:          cfg,
		blockBytes:   blockBytes,
		be:           be,
		capBlocks:    capBlocks,
		blocks:       newBlockIndex(capBlocks),
		cls:          newClassifier(),
		fetchName:    name + "-fetch",
		pfName:       name + "-pf",
		flushName:    name + "-flush",
		prefetchName: name + "-prefetch",
	}
	c.flushFn = c.flushLoop
	c.prefetchFn = c.prefetchLoop
	return c
}

// Config returns the normalized configuration.
func (c *Cache) Config() Config { return c.cfg }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.nResident }

// DirtyLen returns the number of resident dirty blocks.
func (c *Cache) DirtyLen() int { return c.dirty.n }

// Stats returns the accumulated counters plus the classifier's current
// per-stream verdicts.
func (c *Cache) Stats() Stats {
	s := c.s
	s.SeqStreams, s.StridedStreams, s.RandomStreams, s.UnknownStreams = c.cls.counts()
	return s
}

// memTime charges node memory bandwidth for moving bytes to/from the cache.
func (c *Cache) memTime(bytes int64) sim.Time {
	return sim.Time(float64(bytes) / memBWBytesPerS * float64(sim.Second))
}

// overlap returns how many bytes of request [addr, addr+n) fall in block idx.
func (c *Cache) overlap(idx, addr, n int64) int64 {
	bs := c.blockBytes
	lo, hi := idx*bs, (idx+1)*bs
	if addr > lo {
		lo = addr
	}
	if addr+n < hi {
		hi = addr + n
	}
	return hi - lo
}

// Read serves a demand read of [addr, addr+n) on stream: resident blocks are
// hits charged at memory speed, blocks with a fetch in flight are awaited,
// and runs of absent blocks are fetched whole and block-aligned in one
// coalesced array request each. A backend error (node died mid-run) aborts
// the remainder and propagates to the PFS failover path.
func (c *Cache) Read(p *sim.Process, stream, addr, n int64) error {
	if n <= 0 {
		return nil
	}
	bs := c.blockBytes
	last := (addr + n - 1) / bs
	idx := addr / bs
	for idx <= last {
		b := c.blocks.get(idx)
		switch {
		case b != nil && b.resident:
			c.hit(p, b, c.overlap(idx, addr, n))
			idx++
		case b != nil && b.fetch != nil:
			// An identical fetch is in flight (prefetch or a collapsed
			// concurrent demand miss): wait for it, then re-examine.
			c.s.DelayedHits++
			b.fetch.await(p)
		default:
			var err error
			if idx, err = c.fetchRun(p, b, stream, idx, last, addr, n); err != nil {
				return err
			}
		}
	}
	c.observe(p, stream, addr, n, true)
	return nil
}

// fetchRun fetches the maximal run of absent blocks starting at idx (bounded
// by last) in one array request, installs them, and returns the next block
// index to examine. b is idx's entry, or nil.
func (c *Cache) fetchRun(p *sim.Process, b *block, stream, idx, last, addr, n int64) (int64, error) {
	bs := c.blockBytes
	f := c.newFetch(c.fetchName, stream)
	c.claim(f, b, idx)
	for j := idx + 1; j <= last; j++ {
		nb := c.blocks.get(j)
		if nb != nil && (nb.resident || nb.fetch != nil) {
			break
		}
		c.claim(f, nb, j)
	}
	runEnd := idx + int64(len(f.run)) - 1
	err := c.be.BlockIO(p, stream, idx*bs, (runEnd-idx+1)*bs, true)
	if err != nil && errors.Is(err, integrity.ErrCorrupt) && !f.done {
		// The node's checksum verification rejected the fetch and could not
		// repair it in place. Never install the run (no poison in the cache);
		// re-fetch once — an intervening write or repair may have cleared it —
		// and otherwise propagate so the PFS retry path can reroute to a
		// replica.
		c.s.CorruptFetches++
		err = c.be.BlockIO(p, stream, idx*bs, (runEnd-idx+1)*bs, true)
		if err == nil {
			c.s.CorruptRefetches++
		}
	}
	defer c.putFetch(f)
	owner := !f.done // false if an outage already aborted the fetch
	if owner {
		for _, rb := range f.run {
			c.land(rb, err != nil)
		}
	}
	if err != nil {
		if owner {
			f.fire(p)
		}
		return idx, err
	}
	c.s.Fetches++
	for j := idx; j <= runEnd; j++ {
		c.s.Misses++
		c.s.MissBytes += c.overlap(j, addr, n)
		c.installBlock(p, stream, j, false, false)
	}
	if owner {
		f.fire(p)
	}
	return runEnd + 1, nil
}

// newFetch takes a fetch record from the pool, or makes one.
func (c *Cache) newFetch(name string, stream int64) *fetch {
	var f *fetch
	if k := len(c.spareFetches); k > 0 {
		f = c.spareFetches[k-1]
		c.spareFetches = c.spareFetches[:k-1]
	} else {
		f = &fetch{}
	}
	f.name, f.stream, f.done = name, stream, false
	return f
}

// putFetch returns a fetch record its owner is done with to the pool. The
// blocks its run still points at are pooled too, so they need no clearing.
func (c *Cache) putFetch(f *fetch) {
	f.run = f.run[:0]
	c.spareFetches = append(c.spareFetches, f)
}

// claim marks idx's entry b (nil: none yet) in flight with f.
func (c *Cache) claim(f *fetch, b *block, idx int64) {
	if b == nil {
		b = c.newBlock(idx)
		c.blocks.put(b)
	}
	b.fetch = f
	f.run = append(f.run, b)
}

// land takes entry b out of flight when its fetch returns. After a failed
// fetch an entry that is not resident leaves the index; after a good one
// it stays, absent, until its install.
func (c *Cache) land(b *block, failed bool) {
	b.fetch = nil
	if failed && !b.resident {
		c.blocks.del(b.idx)
		c.recycle(b)
	}
}

// newBlock takes an evicted block from the free list, or makes one.
func (c *Cache) newBlock(idx int64) *block {
	var b *block
	if k := len(c.spareBlocks); k > 0 {
		b = c.spareBlocks[k-1]
		c.spareBlocks = c.spareBlocks[:k-1]
	} else {
		b = &block{}
	}
	b.idx = idx
	return b
}

// recycle puts a block that has left the index on the free list.
func (c *Cache) recycle(b *block) {
	*b = block{}
	c.spareBlocks = append(c.spareBlocks, b)
}

// Write absorbs a write of [addr, addr+n) on stream. With write-behind the
// touched blocks are installed dirty at memory speed and the flush daemon
// writes them back later; otherwise the range is written through
// synchronously and installed clean.
func (c *Cache) Write(p *sim.Process, stream, addr, n int64) error {
	if n <= 0 {
		return nil
	}
	bs := c.blockBytes
	first, last := addr/bs, (addr+n-1)/bs
	if !c.cfg.WriteBehind {
		if err := c.be.BlockIO(p, stream, addr, n, false); err != nil {
			return err
		}
		for idx := first; idx <= last; idx++ {
			c.s.WriteThrough++
			c.installBlock(p, stream, idx, false, false)
		}
		c.observe(p, stream, addr, n, false)
		return nil
	}
	p.Sleep(hitOverhead + c.memTime(n))
	for idx := first; idx <= last; idx++ {
		c.installBlock(p, stream, idx, true, false)
	}
	c.s.WriteBytes += n
	c.observe(p, stream, addr, n, false)
	c.ensureFlusher()
	return nil
}

// Drain synchronously flushes the stream's dirty blocks (Handle.Flush /
// FORFLUSH). On a down node there is nothing left to write — the outage
// already disposed of dirty state per policy.
func (c *Cache) Drain(p *sim.Process, stream int64) error {
	if c.down {
		return nil
	}
	return c.flushDirty(p, stream, true)
}

// OnFail is the owning node's outage hook, called while the node can still
// service requests. Per policy it drains or discards dirty blocks, then
// aborts every in-flight fetch so no waiter parks forever on a dead node.
func (c *Cache) OnFail(p *sim.Process) {
	if c.down {
		return
	}
	if c.cfg.FlushOnFail && c.dirty.n > 0 {
		c.s.OutageDrains++
		_ = c.flushDirty(p, 0, false)
	}
	c.down = true
	c.discardDirty()

	var idxs []int64
	for _, b := range c.blocks.slots {
		if b != nil && b.fetch != nil {
			idxs = append(idxs, b.idx)
		}
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		b := c.blocks.get(idx)
		f := b.fetch
		c.land(b, true)
		if !f.done {
			c.s.PrefetchAborted++
			f.fire(p)
		}
	}
	// The queued prefetches' records were fired above; with no owner left
	// to return them they are dropped, not pooled.
	c.pfQueue.Reset()
}

// OnRestore is the owning node's repair hook. Clean resident blocks remain
// valid; write-behind and prefetch resume on demand.
func (c *Cache) OnRestore(p *sim.Process) { c.down = false }

// hit serves segBytes of a request from resident block b.
func (c *Cache) hit(p *sim.Process, b *block, segBytes int64) {
	c.s.Hits++
	c.s.HitBytes += segBytes
	if b.prefetched {
		b.prefetched = false
		c.s.PrefetchUsed++
	}
	c.moveFront(b)
	p.Sleep(hitOverhead + c.memTime(segBytes))
}

// installBlock makes room and makes idx's entry resident; a dirty install
// on an already resident block dirties it in place and re-tags it to
// stream. The second lookup, after ensureRoom yielded to write back a dirty
// victim, catches a concurrent install of the same index in that window:
// making a second block resident would orphan the first in the LRU list.
func (c *Cache) installBlock(p *sim.Process, stream, idx int64, dirty, prefetched bool) {
	b := c.blocks.get(idx)
	if (b == nil || !b.resident) && c.ensureRoom(p) {
		b = c.blocks.get(idx)
	}
	if b == nil {
		b = c.newBlock(idx)
		c.blocks.put(b)
	}
	if b.resident {
		c.moveFront(b)
	} else {
		b.resident, b.stream, b.prefetched = true, stream, prefetched
		c.nResident++
		c.pushFront(b)
	}
	if dirty {
		b.prefetched = false
		c.markDirty(b, stream)
	}
}

// ensureRoom evicts LRU blocks until a new one fits, and reports whether it
// yielded. A dirty victim forces a synchronous flush of the contiguous
// dirty run containing it (ascending block order — the deterministic flush
// ordering guarantee).
func (c *Cache) ensureRoom(p *sim.Process) (yielded bool) {
	for int64(c.nResident) >= c.capBlocks {
		v := c.tail
		if v == nil {
			return yielded
		}
		left := c.remove(v)
		c.s.Evictions++
		if v.prefetched {
			c.s.PrefetchWasted++
		}
		if v.dirty {
			c.s.DirtyEvictions++
			c.flushAround(p, v)
			yielded = true
		}
		if left {
			c.recycle(v)
		}
	}
	return yielded
}

// flushAround writes back the evicted dirty block v together with the
// contiguous dirty same-stream run still resident around it, as one array
// write in ascending block order. v is out of the LRU list but still in
// the dirty index, where the run is the contiguous stretch around it.
func (c *Cache) flushAround(p *sim.Process, v *block) {
	st := c.cls.state(v.stream)
	l := c.dirty.of(st)
	i := find(l, v)
	lo, hi := i, i+1
	for lo > 0 && l[lo-1].idx == l[lo].idx-1 {
		lo--
	}
	for hi < len(l) && l[hi].idx == l[hi-1].idx+1 {
		hi++
	}
	first, last := l[lo].idx, l[hi-1].idx
	c.dirty.drop(st, lo, hi)
	_ = c.writeRun(p, v.stream, first, last)
}

// flushDirty writes back dirty blocks — all of them, or one stream's — as
// coalesced contiguous runs in ascending block order, looking again after
// each write so blocks dirtied during a flush are picked up. A backend error
// (node down) stops the pass; the failed run is counted lost.
func (c *Cache) flushDirty(p *sim.Process, stream int64, filtered bool) error {
	for {
		b := c.firstDirty(stream, filtered)
		if b == nil {
			return nil
		}
		// The run is the contiguous prefix of its stream's dirty list.
		st := c.cls.state(b.stream)
		l := c.dirty.of(st)
		k := 1
		for k < len(l) && l[k].idx == l[k-1].idx+1 {
			k++
		}
		s, lo, hi := b.stream, l[0].idx, l[k-1].idx
		c.dirty.drop(st, 0, k)
		if err := c.writeRun(p, s, lo, hi); err != nil {
			return err
		}
	}
}

// firstDirty returns the dirty block with the smallest index, optionally
// restricted to one stream, or nil: the head of that stream's dirty list,
// or the head of the dirty heap's root stream.
func (c *Cache) firstDirty(stream int64, filtered bool) *block {
	if !filtered {
		return c.dirty.first()
	}
	if l := c.dirty.of(c.cls.state(stream)); len(l) > 0 {
		return l[0]
	}
	return nil
}

// markDirty dirties b on stream s. A clean block becoming dirty is a dirty
// install; a dirty block written on another stream moves to that stream's
// list (a re-tag).
func (c *Cache) markDirty(b *block, s int64) {
	if b.dirty {
		if b.stream == s {
			return
		}
		st := c.cls.state(b.stream)
		i := find(c.dirty.of(st), b)
		c.dirty.drop(st, i, i+1)
	} else {
		c.s.DirtyInstalls++
	}
	c.dirty.add(b, s, c.cls.get(s))
}

// writeRun writes blocks [lo, hi] (already marked clean) back as one array
// request; on failure they are counted lost (the node died under us).
func (c *Cache) writeRun(p *sim.Process, stream, lo, hi int64) error {
	bs := c.blockBytes
	nb := hi - lo + 1
	if err := c.be.BlockIO(p, stream, lo*bs, nb*bs, false); err != nil {
		c.s.LostDirtyBlocks += nb
		c.s.LostDirtyBytes += nb * bs
		c.recordLost(lo, hi)
		return err
	}
	c.s.Flushes++
	c.s.FlushedBlocks += nb
	c.s.FlushedBytes += nb * bs
	return nil
}

// discardDirty drops all dirty blocks (outage without FlushOnFail), in
// ascending block order across streams, counting them lost.
func (c *Cache) discardDirty() {
	if c.dirty.n == 0 {
		return
	}
	lost := make([]*block, 0, c.dirty.n)
	for len(c.dirty.heap) > 0 {
		e := c.dirty.heap[0]
		lost = append(lost, e.blocks...)
		c.dirty.drop(e.st, 0, len(e.blocks))
	}
	slices.SortFunc(lost, func(a, b *block) int { return byIdx(a, b.idx) })
	for i := 0; i < len(lost); {
		j := i
		for j+1 < len(lost) && lost[j+1].idx == lost[j].idx+1 {
			j++
		}
		c.recordLost(lost[i].idx, lost[j].idx)
		i = j + 1
	}
	for _, b := range lost {
		if c.remove(b) {
			c.recycle(b)
		}
		c.s.LostDirtyBlocks++
		c.s.LostDirtyBytes += c.blockBytes
	}
}

// recordLost notes a lost dirty block range [lo, hi] for the incident
// timeline, bounded so a pathological outage cannot bloat the stats.
func (c *Cache) recordLost(lo, hi int64) {
	if len(c.s.LostRanges) >= maxLostRanges {
		c.s.LostRangesDropped++
		return
	}
	c.s.LostRanges = append(c.s.LostRanges, BlockRange{Lo: lo, Hi: hi})
}

// ensureFlusher spawns the write-behind daemon if dirty blocks exist and it
// is not already running. The daemon exits when the cache is clean (or the
// node goes down), so an idle simulation never holds a parked process — the
// engine's drain-time deadlock check stays meaningful.
func (c *Cache) ensureFlusher() {
	if c.flLive || c.down || !c.cfg.WriteBehind {
		return
	}
	c.flLive = true
	c.eng.Spawn(c.flushName, c.flushFn)
}

// flushLoop is the write-behind daemon's body.
func (c *Cache) flushLoop(p *sim.Process) {
	defer func() { c.flLive = false }()
	for {
		p.Sleep(flushDelay)
		if c.down {
			return
		}
		if err := c.flushDirty(p, 0, false); err != nil {
			return
		}
		if c.dirty.n == 0 {
			return
		}
	}
}

// observe feeds the classifier and, on reads, queues the predicted blocks
// for the prefetch daemon.
func (c *Cache) observe(p *sim.Process, stream, addr, n int64, read bool) {
	st := c.cls.observe(stream, addr, n)
	if !read || !c.cfg.Prefetch || c.down {
		return
	}
	c.pred = c.cls.predict(c.pred[:0], st, n, c.blockBytes, prefetchDepth)
	for _, idx := range c.pred {
		if idx < 0 {
			continue
		}
		b := c.blocks.get(idx)
		if b != nil && (b.resident || b.fetch != nil) {
			continue
		}
		f := c.newFetch(c.pfName, stream)
		c.claim(f, b, idx)
		c.pfQueue.Push(f)
		c.s.PrefetchIssued++
	}
	c.ensurePrefetcher()
}

// ensurePrefetcher spawns the readahead daemon if work is queued. Like the
// flusher it is spawn-on-demand and exits when its queue drains.
func (c *Cache) ensurePrefetcher() {
	if c.pfLive || c.pfQueue.Len() == 0 {
		return
	}
	c.pfLive = true
	c.eng.Spawn(c.prefetchName, c.prefetchFn)
}

// prefetchLoop is the readahead daemon's body. It owns each prefetch it
// pops and returns the record once done. An outage empties the queue, so
// every popped prefetch is still in flight.
func (c *Cache) prefetchLoop(p *sim.Process) {
	defer func() { c.pfLive = false }()
	for c.pfQueue.Len() > 0 {
		f := c.pfQueue.Pop()
		c.prefetch(p, f)
		c.putFetch(f)
	}
}

// prefetch reads the single block of prefetch f and installs it.
func (c *Cache) prefetch(p *sim.Process, f *fetch) {
	b := f.run[0]
	idx := b.idx
	if b.resident {
		// Demand traffic brought the block in first.
		c.land(b, false)
		f.fire(p)
		return
	}
	err := c.be.BlockIO(p, f.stream, idx*c.blockBytes, c.blockBytes, true)
	if f.done {
		return // an outage aborted the prefetch while we slept
	}
	c.land(b, err != nil)
	if err != nil {
		if errors.Is(err, integrity.ErrCorrupt) {
			c.s.CorruptFetches++
		}
		c.s.PrefetchAborted++
		f.fire(p)
		return
	}
	c.installBlock(p, f.stream, idx, false, true)
	f.fire(p)
}

// LRU list management; head is most recently used.

func (c *Cache) pushFront(b *block) {
	b.prev, b.next = nil, c.head
	if c.head != nil {
		c.head.prev = b
	}
	c.head = b
	if c.tail == nil {
		c.tail = b
	}
}

// remove takes resident block b out of the LRU list and reports whether
// it also left the block index: an entry whose fetch is still in flight
// stays there for the fetch's waiters and owner.
func (c *Cache) remove(b *block) bool {
	c.unlink(b)
	b.resident = false
	c.nResident--
	if b.fetch != nil {
		return false
	}
	c.blocks.del(b.idx)
	return true
}

func (c *Cache) unlink(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		c.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (c *Cache) moveFront(b *block) {
	if c.head == b {
		return
	}
	c.unlink(b)
	c.pushFront(b)
}

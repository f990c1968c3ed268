package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// decodeAccesses turns a fuzz byte string into a bounded access trace:
// 3 bytes per access — stream selector, kilobyte-granular address, and a
// 1–4 KB length. Small alphabets keep sequential and strided continuations
// (addr == lastEnd, repeated deltas) reachable by the fuzzer's mutations.
func decodeAccesses(data []byte) (stream, addr, n []int64) {
	for i := 0; i+2 < len(data); i += 3 {
		stream = append(stream, int64(data[i]%4))
		addr = append(addr, int64(data[i+1])*1024)
		n = append(n, int64(data[i+2]%4+1)*1024)
	}
	return
}

// FuzzClassifier drives the online stream classifier with arbitrary access
// traces and checks its structural invariants: verdicts are deterministic,
// an all-sequential stream classifies sequential, and predictions are
// strictly increasing non-negative block indices beyond the last access.
func FuzzClassifier(f *testing.F) {
	f.Add([]byte{})                                                     // no accesses at all
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0})                   // sequential: each addr at lastEnd
	f.Add([]byte{1, 0, 1, 1, 8, 1, 1, 16, 1, 1, 24, 1})                 // strided: fixed 8 KB delta
	f.Add([]byte{2, 9, 2, 2, 3, 0, 2, 200, 1, 2, 50, 3, 2, 120, 0})     // random
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 2, 0, 1, 2, 0}) // interleaved streams
	f.Fuzz(func(t *testing.T, data []byte) {
		const blockBytes, depth = 64 * 1024, 4
		stream, addr, n := decodeAccesses(data)

		cl := newClassifier()
		ref := newClassifier() // determinism witness
		allSeq := map[int64]bool{}
		lastEnd := map[int64]int64{}
		count := map[int64]int64{}
		for i := range stream {
			s, a, ln := stream[i], addr[i], n[i]
			if prev, seen := lastEnd[s]; seen && a != prev {
				allSeq[s] = false
			} else if !seen {
				allSeq[s] = true
			}
			lastEnd[s] = a + ln
			count[s]++

			st := cl.observe(s, a, ln)
			ref.observe(s, a, ln)
			if st != cl.state(s) {
				t.Fatalf("stream %d: observe returned a state the stream's slot does not hold", s)
			}
			if st.accesses < classifyMinAccesses && st.pattern() != PatternUnknown {
				t.Fatalf("verdict %v after only %d accesses", st.pattern(), st.accesses)
			}
			pred := cl.predict(nil, st, ln, blockBytes, depth)
			if len(pred) > 0 && st.pattern() == PatternSequential && len(pred) > depth {
				t.Fatalf("sequential prediction of %d blocks exceeds depth %d", len(pred), depth)
			}
			lastBlock := (a + ln - 1) / blockBytes
			for j, b := range pred {
				if b < 0 {
					t.Fatalf("negative predicted block %d", b)
				}
				if j > 0 && b <= pred[j-1] {
					t.Fatalf("predictions not strictly increasing: %v", pred)
				}
				if st.pattern() == PatternSequential && b <= lastBlock {
					t.Fatalf("sequential readahead block %d not past last accessed block %d", b, lastBlock)
				}
			}
		}

		for s, seq := range allSeq {
			st := cl.state(s)
			if seq && count[s] >= classifyMinAccesses && st.pattern() != PatternSequential {
				t.Fatalf("stream %d: every transition sequential over %d accesses, verdict %v",
					s, count[s], st.pattern())
			}
		}
		if cl.n != len(count) {
			t.Fatalf("classifier numbered %d streams, trace has %d", cl.n, len(count))
		}
		numbered := map[int32]bool{}
		for s, k := range cl.slot {
			if k == 0 {
				continue
			}
			if count[int64(s)] == 0 || numbered[k] || int(k) > cl.n {
				t.Fatalf("stream %d holds slot %d of %d, trace accesses %d", s, k, cl.n, count[int64(s)])
			}
			numbered[k] = true
		}
		gotSeq, gotStr, gotRnd, gotUnk := cl.counts()
		if total := gotSeq + gotStr + gotRnd + gotUnk; total != int64(cl.n) {
			t.Fatalf("counts sum %d != %d streams", total, cl.n)
		}
		refSeq, refStr, refRnd, refUnk := ref.counts()
		if gotSeq != refSeq || gotStr != refStr || gotRnd != refRnd || gotUnk != refUnk {
			t.Fatal("same trace classified differently on replay")
		}
	})
}

// FuzzPredictStability replays one stream's trace twice and requires the
// final prediction to match byte-for-byte — prefetch decisions may depend
// only on the observed trace.
func FuzzPredictStability(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0})
	f.Add([]byte{3, 0, 3, 3, 16, 3, 3, 32, 3, 3, 48, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const blockBytes, depth = 64 * 1024, 4
		stream, addr, n := decodeAccesses(data)
		run := func() []int64 {
			cl := newClassifier()
			var last []int64
			for i := range stream {
				st := cl.observe(stream[i], addr[i], n[i])
				last = cl.predict(last[:0], st, n[i], blockBytes, depth)
			}
			return last
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("replay predicted %d blocks, first run %d", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay prediction differs at %d: %v vs %v", i, a, b)
			}
		}
	})
}

// checkedBackend is a fakeBackend that runs a check before every array
// transfer and keeps the first failure. Every flush pick is followed by
// one, so the check sees the cache right after each pick.
type checkedBackend struct {
	fakeBackend
	check func() error
	err   error
}

func (b *checkedBackend) BlockIO(p *sim.Process, stream, addr, bytes int64, read bool) error {
	if b.err == nil {
		b.err = b.check()
	}
	return b.fakeBackend.BlockIO(p, stream, addr, bytes, read)
}

// scanFirstDirty is the scan over every resident block that the dirty
// index replaced, kept as the reference the index must agree with: the
// smallest dirty block index, optionally restricted to one stream.
func scanFirstDirty(c *Cache, stream int64, filtered bool) (int64, bool) {
	var best int64
	found := false
	for _, b := range entries(c) {
		if !b.dirty || (filtered && b.stream != stream) {
			continue
		}
		if !found || b.idx < best {
			best, found = b.idx, true
		}
	}
	return best, found
}

// checkDirtyIndex compares the dirty index with a scan of the resident
// blocks: per stream the same blocks in ascending order, the same total,
// and the same first dirty block as scanFirstDirty, per stream and overall.
// The heap must hold exactly the streams with dirty blocks, each at the
// place its position records, every parent's head below its children's.
func checkDirtyIndex(c *Cache) error {
	want := map[int64][]*block{}
	n := 0
	for _, b := range entries(c) {
		if b.dirty {
			want[b.stream] = append(want[b.stream], b)
			n++
		}
	}
	streams := 0
	for k := 0; k < c.cls.n; k++ {
		if c.cls.pages[k/statePage][k%statePage].dirtyAt != 0 {
			streams++
		}
	}
	if len(want) != streams {
		return fmt.Errorf("dirty index has %d streams, scan %d", streams, len(want))
	}
	for s, l := range want {
		slices.SortFunc(l, func(a, b *block) int { return byIdx(a, b.idx) })
		if got := dirtyOf(c, s); !slices.Equal(got, l) {
			return fmt.Errorf("stream %d: dirty index %v, scan %v", s, idxsOf(got), idxsOf(l))
		}
	}
	if len(c.dirty.heap) != len(want) {
		return fmt.Errorf("dirty heap holds %d streams, scan %d", len(c.dirty.heap), len(want))
	}
	for k, e := range c.dirty.heap {
		if len(e.blocks) == 0 || int(e.st.dirtyAt) != k+1 {
			return fmt.Errorf("dirty heap place %d holds a list of %d blocks whose stream records place %d",
				k, len(e.blocks), e.st.dirtyAt-1)
		}
		if p := (k - 1) / 2; k > 0 && c.dirty.head(p) > c.dirty.head(k) {
			return fmt.Errorf("dirty heap place %d heads block %d above its child's %d",
				p, c.dirty.head(p), c.dirty.head(k))
		}
	}
	if c.DirtyLen() != n {
		return fmt.Errorf("DirtyLen %d, scan %d", c.DirtyLen(), n)
	}
	pick := func(stream int64, filtered bool) error {
		want, ok := scanFirstDirty(c, stream, filtered)
		got := c.firstDirty(stream, filtered)
		if ok != (got != nil) || ok && got.idx != want {
			return fmt.Errorf("firstDirty(%d, %v) = %v, scan gives %d (found %v)", stream, filtered, got, want, ok)
		}
		return nil
	}
	for s := int64(0); s < opStreams; s++ {
		if err := pick(s, true); err != nil {
			return err
		}
	}
	return pick(0, false)
}

// dirtyOf returns stream s's dirty list in the index.
func dirtyOf(c *Cache, s int64) []*block {
	return c.dirty.of(c.cls.state(s))
}

func idxsOf(l []*block) []int64 {
	out := make([]int64, len(l))
	for i, b := range l {
		out[i] = b.idx
	}
	return out
}

// checkCache runs every structural check on c.
func checkCache(c *Cache) error {
	if err := checkLRU(c); err != nil {
		return err
	}
	return checkDirtyIndex(c)
}

const (
	opStreams = 3  // streams the decoded operations use
	opBlocks  = 8  // block indices they touch
	maxOps    = 64 // bound on decoded operations per input
)

// runCacheOps decodes data into a concurrent run on a 4-block write-behind,
// prefetching cache and runs it, checking the cache at every array
// transfer and after every operation. data[0] sets the process count (low
// two bits), FlushOnFail (bit 2) and whether an outage happens (bit 3);
// data[1] sets the outage's start and length. Every following 3 bytes are
// one operation, dealt to the processes in turn: kind (read, write, drain)
// and stream; first block; length in blocks and think time after it.
func runCacheOps(data []byte) (*Cache, error) {
	if len(data) < 2 {
		return nil, nil
	}
	procs := int(data[0]%4) + 1
	cfg := testConfig()
	cfg.FlushOnFail = data[0]&4 != 0
	eng := sim.NewEngine()
	be := &checkedBackend{fakeBackend: fakeBackend{cost: 5 * sim.Millisecond}}
	c := New(eng, "fuzz", cfg, bs, be)
	be.check = func() error { return checkCache(c) }

	ops := data[2:]
	if len(ops) > 3*maxOps {
		ops = ops[:3*maxOps]
	}
	for w := 0; w < procs; w++ {
		eng.Spawn(fmt.Sprintf("p%d", w), func(p *sim.Process) {
			for i := 3 * w; i+2 < len(ops); i += 3 * procs {
				stream := int64(ops[i]/3) % opStreams
				addr := int64(ops[i+1]%opBlocks) * bs
				n := int64(ops[i+2]%2+1) * bs
				switch ops[i] % 3 {
				case 0:
					_ = c.Read(p, stream, addr, n) // errors: the node is down
				case 1:
					_ = c.Write(p, stream, addr, n)
				case 2:
					_ = c.Drain(p, stream)
				}
				if be.err == nil {
					be.err = checkCache(c)
				}
				p.Sleep(sim.Time(ops[i+2]/2%4) * sim.Millisecond)
			}
		})
	}
	if data[0]&8 != 0 {
		start := sim.Time(data[1]%32) * sim.Millisecond
		length := sim.Time(data[1]/32+1) * 5 * sim.Millisecond
		eng.SpawnAt("outage", start, func(p *sim.Process) {
			c.OnFail(p)
			be.down = true
			p.Sleep(length)
			be.down = false
			c.OnRestore(p)
		})
	}
	if err := eng.Run(); err != nil {
		return c, err
	}
	if be.err != nil {
		return c, be.err
	}
	if err := checkCache(c); err != nil {
		return c, err
	}
	return c, checkDirtyConservation(c)
}

// raceSeed is four processes with one operation each. A write's install of
// block 7 evicts a dirty victim and yields while the victim is written
// back; a read's fetch installs block 7 in that window. Before installBlock
// looked the index up again after making room, the write then installed a
// second block 7 and orphaned the first in the LRU list.
var raceSeed = []byte{23, 233, 114, 39, 120, 232, 65, 51, 31, 133, 103, 193, 191, 149}

// FuzzCacheOps runs decoded concurrent Read/Write/Drain traffic, with an
// optional outage, and requires the LRU list and block index to agree, the
// dirty index to match a scan of the resident blocks (including the flush
// pick of the scan-based reference) throughout, and every dirty install to
// end flushed, lost or still resident.
func FuzzCacheOps(f *testing.F) {
	f.Add(raceSeed)
	// Two writers on streams 0 and 1, evicting dirty runs, then draining.
	f.Add([]byte{1, 0, 1, 0, 1, 4, 4, 1, 1, 2, 0, 4, 6, 0, 2, 0, 0, 5, 0, 0})
	// Two streams writing the same blocks: dirty blocks change streams.
	f.Add([]byte{1, 0, 1, 0, 1, 4, 1, 1, 7, 0, 0, 3, 0, 0, 8, 0, 0, 5, 0, 0})
	// Stream 0 dirties blocks 0-1 and stream 1 block 2; stream 1 then
	// writes block 0, which moves to the head of its list: both streams'
	// heads change, and the dirty heap must reorder them.
	f.Add([]byte{0, 0, 1, 0, 1, 4, 2, 0, 4, 0, 0})
	// Streams 0, 1 and 2 dirty blocks 0, 1 and 2; the flusher's first run
	// empties the root's list, and the last stream's list, moved into the
	// root's place, must sink below stream 1's.
	f.Add([]byte{0, 0, 1, 0, 0, 4, 1, 0, 7, 2, 0})
	// One sequential reader, so prefetch runs, with a write in its stream.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 4, 0, 0, 5, 0, 0, 6, 0})
	// Dirty blocks on two streams when the node fails at 3 ms for 10 ms:
	// FlushOnFail drains them, then the crash policy discards them.
	f.Add([]byte{13, 35, 1, 0, 5, 4, 4, 5, 0, 0, 0, 4, 6, 0, 0, 2, 0, 5, 0, 0})
	f.Add([]byte{9, 35, 1, 0, 5, 4, 4, 5, 0, 0, 0, 4, 6, 0, 0, 2, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runCacheOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

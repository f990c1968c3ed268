package cache

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

const bs = 4096 // test block size

var errDown = errors.New("backend down")

// fakeBackend records every array-level transfer and charges a fixed cost.
type fakeBackend struct {
	cost sim.Time
	down bool
	log  []string
}

func (f *fakeBackend) BlockIO(p *sim.Process, stream, addr, bytes int64, read bool) error {
	if f.down {
		return errDown
	}
	op := "w"
	if read {
		op = "r"
	}
	f.log = append(f.log, fmt.Sprintf("%s s%d a%d n%d", op, stream, addr, bytes))
	p.Sleep(f.cost)
	return nil
}

func testConfig() Config {
	return Config{
		Enabled:       true,
		CapacityBytes: 4 * bs,
		WriteBehind:   true,
		Prefetch:      true,
	}
}

func newTest(cfg Config) (*sim.Engine, *fakeBackend, *Cache) {
	eng := sim.NewEngine()
	be := &fakeBackend{cost: 5 * sim.Millisecond}
	return eng, be, New(eng, "test", cfg, bs, be)
}

func TestReadMissFetchesWholeBlockThenHits(t *testing.T) {
	eng, be, c := newTest(testConfig())
	eng.Spawn("r", func(p *sim.Process) {
		if err := c.Read(p, 1, 0, 2048); err != nil {
			t.Error(err)
		}
		if err := c.Read(p, 1, 2048, 2048); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(be.log) != 1 || be.log[0] != fmt.Sprintf("r s1 a0 n%d", bs) {
		t.Fatalf("backend log %v, want one whole-block fetch", be.log)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Fetches != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.MissBytes != 2048 || s.HitBytes != 2048 {
		t.Fatalf("byte accounting %+v", s)
	}
}

func TestMissRunCoalescesIntoOneFetch(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 16 * bs
	eng, be, c := newTest(cfg)
	eng.Spawn("r", func(p *sim.Process) {
		if err := c.Read(p, 1, 0, 4*bs); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(be.log) != 1 || be.log[0] != fmt.Sprintf("r s1 a0 n%d", 4*bs) {
		t.Fatalf("backend log %v, want one 4-block fetch", be.log)
	}
	if s := c.Stats(); s.Misses != 4 || s.Fetches != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSequentialStreamPrefetches(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 64 * bs
	eng, _, c := newTest(cfg)
	eng.Spawn("r", func(p *sim.Process) {
		for off := int64(0); off < 32*bs; off += 1024 {
			if err := c.Read(p, 1, off, 1024); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.PrefetchIssued == 0 || s.PrefetchUsed == 0 {
		t.Fatalf("no prefetch activity: %+v", s)
	}
	if s.PrefetchAccuracy() < 0.9 {
		t.Fatalf("sequential prefetch accuracy %.2f, want >= 0.9", s.PrefetchAccuracy())
	}
	if s.SeqStreams != 1 {
		t.Fatalf("stream verdicts %+v", s)
	}
}

func TestRandomStreamDoesNotPrefetch(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 8 * bs
	eng, _, c := newTest(cfg)
	rng := sim.NewRNG(7)
	eng.Spawn("r", func(p *sim.Process) {
		for i := 0; i < 64; i++ {
			off := rng.Int63n(1024) * bs
			if err := c.Read(p, 1, off, bs); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.PrefetchIssued != 0 {
		t.Fatalf("random stream prefetched %d blocks", s.PrefetchIssued)
	}
	if s.RandomStreams != 1 {
		t.Fatalf("stream verdicts %+v", s)
	}
}

func TestWriteBehindAbsorbsAndFlushesCoalesced(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 16 * bs
	eng, be, c := newTest(cfg)
	var writeTime sim.Time
	eng.Spawn("w", func(p *sim.Process) {
		start := p.Now()
		for off := int64(0); off < 4*bs; off += 1024 {
			if err := c.Write(p, 1, off, 1024); err != nil {
				t.Error(err)
				return
			}
		}
		writeTime = p.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if writeTime >= be.cost {
		t.Fatalf("write-behind writes took %v, want memory-speed", writeTime)
	}
	// All four dirty blocks coalesced into one flush I/O.
	var writes []string
	for _, l := range be.log {
		if strings.HasPrefix(l, "w") {
			writes = append(writes, l)
		}
	}
	if len(writes) != 1 || writes[0] != fmt.Sprintf("w s1 a0 n%d", 4*bs) {
		t.Fatalf("flush writes %v, want one coalesced run", writes)
	}
	s := c.Stats()
	if s.Flushes != 1 || s.FlushedBlocks != 4 {
		t.Fatalf("flush stats %+v", s)
	}
	if s.Coalescing() != 4 {
		t.Fatalf("coalescing %.1f, want 4.0", s.Coalescing())
	}
	if c.DirtyLen() != 0 {
		t.Fatalf("%d dirty blocks left after flush", c.DirtyLen())
	}
}

func TestDirtyEvictionFlushesContiguousRunAscending(t *testing.T) {
	cfg := testConfig() // capacity 4 blocks
	eng, be, c := newTest(cfg)
	eng.Spawn("w", func(p *sim.Process) {
		for i := int64(0); i < 5; i++ { // fifth write evicts block 0
			if err := c.Write(p, 1, i*bs, bs); err != nil {
				t.Error(err)
				return
			}
		}
		// Drain the rest so the eternal flush daemon exits cleanly.
		if err := c.Drain(p, 1); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.DirtyEvictions != 1 {
		t.Fatalf("stats %+v, want one dirty eviction", s)
	}
	// The eviction flush covers the whole contiguous dirty run 0..3 in one
	// ascending write.
	if be.log[0] != fmt.Sprintf("w s1 a0 n%d", 4*bs) {
		t.Fatalf("eviction flush %v", be.log)
	}
}

func TestOutageDiscardsDirtyAndCountsLost(t *testing.T) {
	cfg := testConfig()
	eng, be, c := newTest(cfg)
	eng.Spawn("w", func(p *sim.Process) {
		for i := int64(0); i < 3; i++ {
			if err := c.Write(p, 1, i*bs, bs); err != nil {
				t.Error(err)
				return
			}
		}
		be.down = true
		c.OnFail(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.LostDirtyBlocks != 3 || s.LostDirtyBytes != 3*bs {
		t.Fatalf("lost accounting %+v", s)
	}
	if s.Flushes != 0 {
		t.Fatalf("crash policy flushed: %+v", s)
	}
	if c.DirtyLen() != 0 {
		t.Fatal("dirty blocks survived the outage")
	}
}

func TestFlushOnFailDrainsBeforeOutage(t *testing.T) {
	cfg := testConfig()
	cfg.FlushOnFail = true
	eng, be, c := newTest(cfg)
	eng.Spawn("w", func(p *sim.Process) {
		for i := int64(0); i < 3; i++ {
			if err := c.Write(p, 1, i*bs, bs); err != nil {
				t.Error(err)
				return
			}
		}
		c.OnFail(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.OutageDrains != 1 || s.FlushedBlocks != 3 || s.LostDirtyBlocks != 0 {
		t.Fatalf("graceful drain stats %+v", s)
	}
	if be.log[len(be.log)-1] != fmt.Sprintf("w s1 a0 n%d", 3*bs) {
		t.Fatalf("drain writes %v", be.log)
	}
}

func TestOutageAbortsInFlightFetchesWithoutDeadlock(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 64 * bs
	eng, be, c := newTest(cfg)
	var readErr error
	eng.Spawn("reader", func(p *sim.Process) {
		// Warm the classifier sequential so prefetches get queued.
		for off := int64(0); off < 6*bs; off += bs {
			if err := c.Read(p, 1, off, bs); err != nil {
				readErr = err
				return
			}
		}
	})
	eng.SpawnAt("injector", 12*sim.Millisecond, func(p *sim.Process) {
		be.down = true
		c.OnFail(p)
	})
	// Run must terminate: every pending completion fired, daemons exited.
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr == nil {
		t.Fatal("reader survived the outage unscathed")
	}
	if inFlight(c) != 0 || c.pfQueue.Len() != 0 {
		t.Fatalf("outage left %d blocks in flight, %d prefetches queued", inFlight(c), c.pfQueue.Len())
	}
}

func TestWriteThroughInstallsClean(t *testing.T) {
	cfg := testConfig()
	cfg.WriteBehind = false
	eng, be, c := newTest(cfg)
	eng.Spawn("w", func(p *sim.Process) {
		if err := c.Write(p, 1, 0, 2*bs); err != nil {
			t.Error(err)
		}
		if err := c.Read(p, 1, 0, bs); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(be.log) != 1 || be.log[0] != fmt.Sprintf("w s1 a0 n%d", 2*bs) {
		t.Fatalf("backend log %v, want one synchronous write", be.log)
	}
	s := c.Stats()
	if s.WriteThrough != 2 || s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("stats %+v", s)
	}
	if c.DirtyLen() != 0 {
		t.Fatal("write-through left dirty blocks")
	}
}

func TestConcurrentMissesCollapseIntoOneFetch(t *testing.T) {
	cfg := testConfig()
	eng, be, c := newTest(cfg)
	for i := 0; i < 3; i++ {
		eng.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Process) {
			if err := c.Read(p, 1, 0, bs); err != nil {
				t.Error(err)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(be.log) != 1 {
		t.Fatalf("backend log %v, want the misses collapsed into one fetch", be.log)
	}
	s := c.Stats()
	if s.DelayedHits != 2 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// runDeterminismScenario drives several concurrent writers under capacity
// pressure (forcing concurrent dirty evictions) and returns the backend's
// full transfer log plus the final stats.
func runDeterminismScenario(t *testing.T) ([]string, Stats) {
	t.Helper()
	cfg := testConfig() // 4-block capacity: heavy eviction traffic
	eng, be, c := newTest(cfg)
	for w := 0; w < 4; w++ {
		w := w
		eng.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Process) {
			stream := int64(w + 1)
			base := int64(w) << 20
			for i := int64(0); i < 12; i++ {
				if err := c.Write(p, stream, base+i*bs, bs); err != nil {
					t.Error(err)
					return
				}
				p.Sleep(sim.Millisecond)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return be.log, c.Stats()
}

func TestFlushOrderingDeterministicUnderConcurrentEvictions(t *testing.T) {
	log1, s1 := runDeterminismScenario(t)
	log2, s2 := runDeterminismScenario(t)
	if len(log1) == 0 {
		t.Fatal("scenario produced no backend traffic")
	}
	if strings.Join(log1, "\n") != strings.Join(log2, "\n") {
		t.Fatalf("two identical runs diverged:\n%v\nvs\n%v", log1, log2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
}

func TestAggregateSums(t *testing.T) {
	a := Stats{Node: 0, Hits: 3, Misses: 1, Flushes: 2, FlushedBlocks: 6}
	b := Stats{Node: 1, Hits: 1, Misses: 1, PrefetchIssued: 5}
	tot := Aggregate([]Stats{a, b})
	if tot.Node != -1 || tot.Hits != 4 || tot.Misses != 2 || tot.Flushes != 2 ||
		tot.FlushedBlocks != 6 || tot.PrefetchIssued != 5 {
		t.Fatalf("aggregate %+v", tot)
	}
	if tot.HitRatio() != 4.0/6.0 {
		t.Fatalf("hit ratio %f", tot.HitRatio())
	}
	if tot.Coalescing() != 3 {
		t.Fatalf("coalescing %f", tot.Coalescing())
	}
}

// entries returns the block index's entries in slot order.
func entries(c *Cache) []*block {
	var out []*block
	for _, b := range c.blocks.slots {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// checkLRU reports any disagreement between the LRU list and the block
// index: every entry must be found by a lookup of its own index, once,
// every list entry must be the index's resident entry for its index, the
// links must be consistent, and the list must hold exactly the index's
// resident blocks, within capacity. An entry that is not resident holds no
// dirty data, and no entry keeps a fetch that has already fired.
func checkLRU(c *Cache) error {
	resident := 0
	all := entries(c)
	if len(all) != c.blocks.n {
		return fmt.Errorf("block index holds %d entries, counts %d", len(all), c.blocks.n)
	}
	seen := make(map[int64]bool, len(all))
	for _, b := range all {
		idx := b.idx
		if seen[idx] {
			return fmt.Errorf("block index holds block %d twice", idx)
		}
		seen[idx] = true
		if got := c.blocks.get(idx); got != b {
			return fmt.Errorf("lookup of block %d finds %v, not its entry", idx, got)
		}
		if b.resident {
			resident++
		} else if b.dirty {
			return fmt.Errorf("block %d is dirty but not resident", idx)
		}
		if b.fetch != nil && b.fetch.done {
			return fmt.Errorf("block %d is still in flight on a fired fetch", idx)
		}
	}
	if resident != c.Len() {
		return fmt.Errorf("index holds %d resident blocks, Len %d", resident, c.Len())
	}
	n := 0
	var prev *block
	for b := c.head; b != nil; prev, b = b, b.next {
		if c.blocks.get(b.idx) != b || !b.resident {
			return fmt.Errorf("LRU entry for block %d is not the index's resident entry", b.idx)
		}
		if b.prev != prev {
			return fmt.Errorf("block %d has a broken back link", b.idx)
		}
		n++
	}
	if c.tail != prev {
		return errors.New("tail is not the last LRU entry")
	}
	if n != c.Len() {
		return fmt.Errorf("LRU list holds %d blocks, index %d", n, c.Len())
	}
	if int64(n) > c.capBlocks {
		return fmt.Errorf("%d resident blocks exceed capacity %d", n, c.capBlocks)
	}
	return nil
}

// checkDirtyConservation reports a dirty install that was neither flushed,
// lost nor left resident.
func checkDirtyConservation(c *Cache) error {
	s := c.Stats()
	if s.DirtyInstalls != s.FlushedBlocks+s.LostDirtyBlocks+int64(c.DirtyLen()) {
		return fmt.Errorf("dirty installs %d != flushed %d + lost %d + resident dirty %d",
			s.DirtyInstalls, s.FlushedBlocks, s.LostDirtyBlocks, c.DirtyLen())
	}
	return nil
}

// TestConcurrentInstallDuringEvictionFlush races four processes' reads and
// writes over 3 streams and 8 block indices on the 4-block write-behind
// cache. An install that must evict a dirty victim yields while the victim
// is written back, and another process often installs the same index in
// that window. Every run must end with the LRU list and the block index
// holding the same blocks and every dirty install accounted for.
func TestConcurrentInstallDuringEvictionFlush(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		eng, _, c := newTest(testConfig())
		rng := sim.NewRNG(seed)
		for w := 0; w < 4; w++ {
			r := rng.Split()
			eng.Spawn(fmt.Sprintf("p%d", w), func(p *sim.Process) {
				for i := 0; i < 12; i++ {
					stream, addr := r.Int63n(3), r.Int63n(8)*bs
					var err error
					if r.Intn(2) == 0 {
						err = c.Write(p, stream, addr, bs)
					} else {
						err = c.Read(p, stream, addr, bs)
					}
					if err != nil {
						t.Error(err)
						return
					}
					p.Sleep(sim.Time(r.Int63n(3)) * sim.Millisecond)
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkLRU(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkDirtyConservation(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

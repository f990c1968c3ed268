package cache

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
)

// costBackend charges a fixed service time per transfer and records
// nothing, so it allocates nothing itself.
type costBackend struct{ cost sim.Time }

func (b costBackend) BlockIO(p *sim.Process, stream, addr, bytes int64, read bool) error {
	p.Sleep(b.cost)
	return nil
}

// fetchCycles runs n cycles on a full 8-block cache and returns its stats.
// Each cycle is one read on each of two streams: a sequential stream whose
// reads hit the blocks its readahead prefetched and queue one more
// prefetch, and a random stream whose every read is a demand miss. Both
// installs evict a block.
func fetchCycles(t *testing.T, n int) Stats {
	cfg := testConfig()
	cfg.CapacityBytes = 8 * bs
	eng := sim.NewEngine()
	c := New(eng, "alloc", cfg, bs, costBackend{cost: 5 * sim.Millisecond})
	read := func(p *sim.Process, stream, idx int64) {
		if err := c.Read(p, stream, idx*bs, bs); err != nil {
			t.Error(err)
		}
	}
	eng.Spawn("seq", func(p *sim.Process) {
		for i := int64(0); i < int64(n); i++ {
			read(p, 1, i)
		}
	})
	eng.Spawn("random", func(p *sim.Process) {
		for i := int64(0); i < int64(n); i++ {
			read(p, 2, 1<<20+i*i) // growing gaps: never sequential or strided
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// TestCacheFetchAllocCeiling pins the fetch path at zero allocations once
// the cache is warm and full: doubling the cycles from 200 to 400 adds 200
// demand misses, about 200 prefetches and 400 evictions, and must add no
// allocation.
func TestCacheFetchAllocCeiling(t *testing.T) {
	const short, long = 200, 400
	s, l := fetchCycles(t, short), fetchCycles(t, long)
	extra := func(f func(Stats) int64) int64 { return f(l) - f(s) }
	misses := extra(func(s Stats) int64 { return s.Misses })
	prefetches := extra(func(s Stats) int64 { return s.PrefetchIssued })
	evictions := extra(func(s Stats) int64 { return s.Evictions })
	if misses < long-short || prefetches < (long-short)*9/10 || evictions < 2*(long-short)*9/10 {
		t.Fatalf("the extra cycles made %d misses, %d prefetches and %d evictions; want about %d, %d and %d",
			misses, prefetches, evictions, long-short, long-short, 2*(long-short))
	}
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { fetchCycles(t, n) })
	}
	a, b := allocs(short), allocs(long)
	perCycle := (b - a) / (long - short)
	t.Logf("%.0f allocations at %d cycles, %.0f at %d: %.3f per cycle", a, short, b, long, perCycle)
	if perCycle > 0.01 {
		t.Fatalf("a demand-miss + prefetch + evict cycle allocated %.3f times; want 0", perCycle)
	}
}

// churnCycles runs n cycles over a full 128-block write-behind cache with
// 300 streams and returns its stats. Cycle i is a write and a read on
// stream i mod 300, each to a block never touched before, so every install
// evicts a block, dirty victims are written back with their runs, and the
// dirty index keeps taking streams in and out.
func churnCycles(t *testing.T, n int) Stats {
	const streams = 300
	cfg := testConfig()
	cfg.CapacityBytes = 128 * bs
	eng := sim.NewEngine()
	c := New(eng, "churn", cfg, bs, costBackend{cost: sim.Millisecond})
	eng.Spawn("churn", func(p *sim.Process) {
		for i := int64(0); i < int64(n); i++ {
			s := i % streams
			if err := c.Write(p, s, (s<<20+i)*bs, bs); err != nil {
				t.Error(err)
			}
			if err := c.Read(p, s, (1<<40+i*i)*bs, bs); err != nil {
				t.Error(err)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return c.Stats()
}

// TestCacheChurnAllocCeiling pins evictions at zero allocations once the
// cache is full and every one of its 300 streams has been seen: going from
// 1,200 to 2,400 cycles adds 2,400 evictions, among them dirty ones, and
// must add no allocation.
func TestCacheChurnAllocCeiling(t *testing.T) {
	const short, long = 1200, 2400
	s, l := churnCycles(t, short), churnCycles(t, long)
	evictions := l.Evictions - s.Evictions
	dirty := l.DirtyEvictions - s.DirtyEvictions
	if evictions < 2*(long-short)*9/10 || dirty == 0 || l.UnknownStreams+l.RandomStreams+l.SeqStreams+l.StridedStreams != 300 {
		t.Fatalf("the extra cycles made %d evictions (%d dirty) over %d streams; want about %d, some dirty, over 300",
			evictions, dirty, l.UnknownStreams+l.RandomStreams+l.SeqStreams+l.StridedStreams, 2*(long-short))
	}
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { churnCycles(t, n) })
	}
	a, b := allocs(short), allocs(long)
	perCycle := (b - a) / (long - short)
	t.Logf("%.0f allocations at %d cycles, %.0f at %d: %.3f per cycle", a, short, b, long, perCycle)
	if perCycle > 0.01 {
		t.Fatalf("a write + read cycle with two evictions allocated %.3f times; want 0", perCycle)
	}
}

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

package cache

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// inFlight counts the block index's entries with a fetch or prefetch in
// flight.
func inFlight(c *Cache) int {
	n := 0
	for _, b := range entries(c) {
		if b.fetch != nil {
			n++
		}
	}
	return n
}

// TestOutageAbortOrderAcrossSharedRunFetches aborts two multi-block demand
// runs, one in-flight prefetch and two queued prefetches with OnFail, and
// pins what follows: every waiter of a run wakes in the order it arrived
// across the whole run (not block by block), the runs and prefetches are
// aborted in ascending block order, each fetch is counted once, and the
// array sees the same request sequence.
func TestOutageAbortOrderAcrossSharedRunFetches(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 64 * bs
	eng, be, c := newTest(cfg)
	var woke []string
	read := func(name string, at sim.Time, stream, first, blocks int64) {
		eng.SpawnAt(name, at, func(p *sim.Process) {
			err := c.Read(p, stream, first*bs, blocks*bs)
			woke = append(woke, fmt.Sprintf("%s@%v:%v", name, p.Now(), err))
		})
	}
	// A sequential reader on stream 3: its fourth read (block 23, done at
	// 20 ms) queues prefetches of blocks 24-26, and it then waits on 24.
	eng.Spawn("seq", func(p *sim.Process) {
		var err error
		for idx := int64(20); idx <= 24 && err == nil; idx++ {
			err = c.Read(p, 3, idx*bs, bs)
		}
		woke = append(woke, fmt.Sprintf("seq@%v:%v", p.Now(), err))
	})
	// Two demand runs issued at 19 ms: blocks 8-11 and blocks 2-4.
	read("run8", 19*sim.Millisecond, 1, 8, 4)
	read("run2", 19*sim.Millisecond, 2, 2, 3)
	// Waiters arrive across each run out of block order, and on the
	// queued prefetch of block 25.
	read("w10", 20*sim.Millisecond, 1, 10, 1)
	read("w3", 20*sim.Millisecond+100*sim.Microsecond, 2, 3, 1)
	read("w8", 20*sim.Millisecond+200*sim.Microsecond, 1, 8, 1)
	read("w25", 20*sim.Millisecond+300*sim.Microsecond, 3, 25, 1)
	read("w2", 20*sim.Millisecond+400*sim.Microsecond, 2, 2, 1)
	read("w11", 20*sim.Millisecond+500*sim.Microsecond, 1, 11, 1)
	eng.SpawnAt("injector", 22*sim.Millisecond, func(p *sim.Process) {
		be.down = true
		c.OnFail(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"w3@0.022000s:backend down",
		"w2@0.022000s:backend down",
		"w10@0.022000s:backend down",
		"w8@0.022000s:backend down",
		"w11@0.022000s:backend down",
		"seq@0.022000s:backend down",
		"w25@0.022000s:backend down",
		"run8@0.024000s:<nil>",
		"run2@0.024000s:<nil>",
	}
	if got := strings.Join(woke, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("wake order:\n%s\nwant\n%s", got, strings.Join(want, "\n"))
	}
	wantLog := []string{
		"r s3 a81920 n4096",
		"r s3 a86016 n4096",
		"r s3 a90112 n4096",
		"r s3 a94208 n4096",
		"r s1 a32768 n16384",
		"r s2 a8192 n12288",
		"r s3 a98304 n4096",
	}
	if got := strings.Join(be.log, "\n"); got != strings.Join(wantLog, "\n") {
		t.Fatalf("array requests:\n%s\nwant\n%s", got, strings.Join(wantLog, "\n"))
	}
	s := c.Stats()
	if s.PrefetchIssued != 3 || s.PrefetchAborted != 5 || s.DelayedHits != 7 ||
		s.Fetches != 6 || s.Misses != 11 {
		t.Fatalf("stats %+v", s)
	}
	if n := inFlight(c); n != 0 {
		t.Fatalf("outage left %d blocks in flight", n)
	}
}

// stallBackend is a fakeBackend whose reads at or past stallAt park on a
// barrier nobody else reaches, so a fetch of those blocks never returns.
type stallBackend struct {
	fakeBackend
	stallAt int64
	hang    *sim.Barrier
}

func (b *stallBackend) BlockIO(p *sim.Process, stream, addr, bytes int64, read bool) error {
	if read && addr >= b.stallAt {
		b.hang.Wait(p)
	}
	return b.fakeBackend.BlockIO(p, stream, addr, bytes, read)
}

// TestDeadlockListingNamesCacheFetches pins the deadlock listing's entries
// for readers parked on a cache fetch that never returns: one waits on a
// demand fetch, one on a prefetch.
func TestDeadlockListingNamesCacheFetches(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 64 * bs
	eng := sim.NewEngine()
	be := &stallBackend{fakeBackend: fakeBackend{cost: 5 * sim.Millisecond},
		stallAt: 4 * bs, hang: sim.NewBarrier(eng, "array", 10)}
	c := New(eng, "ion3", cfg, bs, be)
	// Four sequential reads queue prefetches of blocks 4-6; the fifth read
	// waits on the prefetch of block 4, which stalls in the array.
	eng.Spawn("seq", func(p *sim.Process) {
		for idx := int64(0); idx <= 4; idx++ {
			if err := c.Read(p, 1, idx*bs, bs); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Spawn("miss", func(p *sim.Process) {
		if err := c.Read(p, 2, 17*bs, bs); err != nil {
			t.Error(err)
		}
	})
	eng.SpawnAt("collapsed", sim.Microsecond, func(p *sim.Process) {
		if err := c.Read(p, 2, 17*bs, bs); err != nil {
			t.Error(err)
		}
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("want a deadlock error, got nil")
	}
	const want = "sim: deadlock at 0.020000s: 4 processes blocked forever: " +
		"collapsed(id=3,completion:ion3-fetch), ion3-prefetch(id=4,barrier:array), " +
		"miss(id=2,barrier:array), seq(id=1,completion:ion3-pf)"
	if got := err.Error(); got != want {
		t.Fatalf("deadlock listing:\n got %s\nwant %s", got, want)
	}
}

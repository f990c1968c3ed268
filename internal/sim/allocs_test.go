package sim

import (
	"fmt"
	"testing"

	"repro/internal/race"
)

// TestEventLoopAllocCeiling guards the hot-path optimizations: the
// schedule/pop/switch cycle must not allocate per event. Before the value-type
// 4-ary heap and the process free list this workload allocated ~26k times per
// simulation (roughly 2/event); now the total is dominated by the fixed
// per-process setup (struct and coroutine), so the ceiling is a small
// multiple of the process count, not the event count.
func TestEventLoopAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	const procs, sleeps = 64, 200 // 12800 events per run
	names := make([]string, procs)
	for j := range names {
		names[j] = fmt.Sprintf("p%d", j)
	}
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		for j := 0; j < procs; j++ {
			j := j
			e.Spawn(names[j], func(p *Process) {
				for k := 0; k < sleeps; k++ {
					p.Sleep(Time(j+1) * Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	// 64 processes × a handful of setup allocations each, plus slack for heap
	// growth. 12800 events at even 0.25 allocs/event would blow through this.
	const ceiling = 1500
	if avg > ceiling {
		t.Fatalf("event loop allocated %.0f times per run (%d events); ceiling %d",
			avg, procs*sleeps, ceiling)
	}
}

// TestSequentialChainAllocCeiling pins the uncontended fast path — a lone
// process sleeping when its own wake is the next event — at effectively zero
// allocations per event.
func TestSequentialChainAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	const sleeps = 10000
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		e.Spawn("solo", func(p *Process) {
			for k := 0; k < sleeps; k++ {
				p.Sleep(Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	// One process's setup plus heap-slice growth: tens, not thousands.
	const ceiling = 64
	if avg > ceiling {
		t.Fatalf("sequential chain allocated %.0f times per run (%d events); ceiling %d",
			avg, sleeps, ceiling)
	}
}

// TestSpawnReuseAllocCeiling pins process reuse: sequential short-lived
// processes reissue one finished struct and its parked coroutine, so a spawn
// costs no goroutine and no closure, and a run's allocations stay a small
// constant however many processes it spawns.
func TestSpawnReuseAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	const children = 10000
	avg := testing.AllocsPerRun(5, func() {
		e := NewEngine()
		e.Spawn("driver", func(p *Process) {
			for k := 0; k < children; k++ {
				e.Spawn("child", func(c *Process) {
					c.Sleep(Microsecond)
				})
				p.Sleep(2 * Microsecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	// Two coroutines, the engine, and heap growth: tens. One allocation per
	// spawn would be 10000.
	const ceiling = 100
	if avg > ceiling {
		t.Fatalf("%d sequential spawns allocated %.0f times per run; ceiling %d",
			children, avg, ceiling)
	}
}

// extraAllocsPerWait measures what one more wait costs in steady state: it
// runs sim at n and at 2n waits, after a warm-up each, and returns the extra
// allocations per extra wait. Setup costs — the engine, process structs and
// coroutines, the first growth of every backing array — appear equally in
// both runs and cancel.
func extraAllocsPerWait(t *testing.T, n int, sim func(waits int)) float64 {
	t.Helper()
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	small := testing.AllocsPerRun(5, func() { sim(n) })
	large := testing.AllocsPerRun(5, func() { sim(2 * n) })
	return (large - small) / float64(n)
}

// checkZeroPerWait fails unless the extra allocations round to zero per wait
// (a stray runtime allocation over the whole run is tolerated; one per wait
// is not).
func checkZeroPerWait(t *testing.T, what string, perWait float64) {
	t.Helper()
	t.Logf("%s: %.3f allocations per wait", what, perWait)
	if perWait > 0.01 {
		t.Fatalf("%s allocated %.3f times per wait in steady state; want 0", what, perWait)
	}
}

// TestResourceHandoffAllocCeiling pins the contended Resource path: two
// processes alternate on a one-unit resource, so every acquire queues, parks
// and is woken by a direct hand-off. Neither the wait reason, the grant nor
// the waiter queue may allocate.
func TestResourceHandoffAllocCeiling(t *testing.T) {
	perWait := extraAllocsPerWait(t, 1000, func(waits int) {
		e := NewEngine()
		r := NewResource(e, "disk", 1)
		for _, name := range []string{"a", "b"} {
			e.Spawn(name, func(p *Process) {
				for k := 0; k < waits/2; k++ {
					r.Acquire(p)
					p.Sleep(Microsecond)
					r.Release(p)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
		// Uncontended, the two would overlap and finish in half the time.
		if got, want := e.Now(), Time(waits/2*2)*Microsecond; got != want {
			t.Errorf("finished at %v, want %v (every use serialized)", got, want)
		}
	})
	checkZeroPerWait(t, "contended Resource hand-off", perWait)
}

// TestBarrierRoundAllocCeiling pins a barrier round: the released group is
// copied into the engine's batch, so the barrier keeps its arrival array.
func TestBarrierRoundAllocCeiling(t *testing.T) {
	const group = 4
	perWait := extraAllocsPerWait(t, 1000, func(waits int) {
		e := NewEngine()
		b := NewBarrier(e, "cycle", group)
		for j := 0; j < group; j++ {
			e.Spawn(fmt.Sprintf("n%d", j), func(p *Process) {
				for k := 0; k < waits/group; k++ {
					p.Sleep(Time(j+1) * Microsecond)
					b.Wait(p)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	checkZeroPerWait(t, "Barrier round", perWait)
}

// TestCompletionAwaitAllocCeiling pins Completion.Await: a process awaits a
// run of pending completions, each fired later by another process. The
// completions are built before measuring (they are one-shot), so only the
// waits are counted.
func TestCompletionAwaitAllocCeiling(t *testing.T) {
	const n = 1000
	var pool []*Completion
	for i := 0; i < 18*n; i++ { // a warm-up and five runs at n, then at 2n
		pool = append(pool, NewCompletion("io"))
	}
	perWait := extraAllocsPerWait(t, n, func(waits int) {
		comps := pool[:waits]
		pool = pool[waits:]
		e := NewEngine()
		e.Spawn("waiter", func(p *Process) {
			for _, c := range comps {
				c.Await(p)
			}
		})
		e.Spawn("firer", func(p *Process) {
			for _, c := range comps {
				p.Sleep(Microsecond)
				c.Complete(p)
			}
		})
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	checkZeroPerWait(t, "Completion.Await", perWait)
}

// TestPooledSpawnAllocCeiling pins the pool's reuse across engines: once one
// engine has finished on a pool, a second engine on it that spawns and
// finishes 2,000 concurrent processes reissues the first engine's parked
// coroutines and warm arrays, so it creates no coroutine and allocates far
// less than once per spawn. A fresh engine pays a coroutine and a process
// struct per spawn.
func TestPooledSpawnAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	const procs = 2000
	body := func(p *Process) { p.Sleep(Microsecond) }
	run := func(pool *Pool) {
		e := NewEngine()
		e.SetPool(pool)
		for j := 0; j < procs; j++ {
			e.Spawn("p", body)
		}
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	}
	var pool Pool
	defer pool.Close()
	run(&pool) // the warm engine
	pooled := testing.AllocsPerRun(5, func() { run(&pool) })
	fresh := testing.AllocsPerRun(5, func() { run(nil) })
	t.Logf("per %d-process engine: %.0f allocations pooled, %.0f fresh", procs, pooled, fresh)
	// The engine struct and a stray runtime allocation. A single new
	// coroutine costs several allocations.
	const ceiling = 4
	if pooled > ceiling || pooled >= fresh {
		t.Fatalf("pooled engine allocated %.0f times for %d spawns (fresh %.0f); ceiling %d",
			pooled, procs, fresh, ceiling)
	}
}

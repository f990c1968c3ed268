package ionode

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/disk"
	"repro/internal/race"
	"repro/internal/sim"
)

func TestPolicyValidation(t *testing.T) {
	for _, name := range []string{"", "fcfs", "cscan", "sstf", "random"} {
		if err := (SchedConfig{Policy: name}).Validate(); err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
	}
	if err := (SchedConfig{Policy: "elevator"}).Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestCSCANPolicyOrder(t *testing.T) {
	pol := cscanPolicy{}
	// Head at 100: picks the smallest address at or past it.
	if i := pol.Next(100, []int64{50, 300, 150, 150}, nil); i != 2 {
		t.Fatalf("ahead pick = %d, want 2 (first 150)", i)
	}
	// Nothing ahead: wraps to the globally smallest.
	if i := pol.Next(1000, []int64{500, 50, 300}, nil); i != 1 {
		t.Fatalf("wrap pick = %d, want 1", i)
	}
}

func TestSSTFPolicyOrder(t *testing.T) {
	pol := sstfPolicy{}
	if i := pol.Next(100, []int64{0, 90, 300}, nil); i != 1 {
		t.Fatalf("sstf pick = %d, want 1", i)
	}
	// Exact ties break by arrival order.
	if i := pol.Next(100, []int64{110, 90}, nil); i != 0 {
		t.Fatalf("sstf tie pick = %d, want 0", i)
	}
}

// TestCSCANServiceOrder drives a node through the dispatcher with concurrent
// requests at scattered addresses and checks they are serviced in ascending
// address order after the anticipation window gathers them.
func TestCSCANServiceOrder(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 0, disk.DefaultArrayConfig())
	if err := n.EnableSched(SchedConfig{Policy: "cscan", Window: sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	addrs := []int64{5 << 20, 1 << 20, 9 << 20, 3 << 20}
	var order []int64
	for i, a := range addrs {
		a := a
		eng.Spawn(fmt.Sprintf("req%d", i), func(p *sim.Process) {
			p.Sleep(sim.Time(i) * 10 * sim.Microsecond) // stagger arrivals inside the window
			if err := n.BlockIO(p, 1, a, 4096, true); err != nil {
				t.Errorf("req %d: %v", i, err)
			}
			order = append(order, a)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{1 << 20, 3 << 20, 5 << 20, 9 << 20}
	for i, a := range want {
		if order[i] != a {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
	st, ok := n.SchedStats()
	if !ok || st.Policy != "cscan" {
		t.Fatalf("SchedStats = %+v, %v", st, ok)
	}
	if st.Grants != 4 || st.Reorders == 0 || st.Anticipated != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestFCFSDispatcherKeepsArrivalOrder: the fcfs policy through the dispatcher
// must preserve arrival order even with the anticipation window on.
func TestFCFSDispatcherKeepsArrivalOrder(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 0, disk.DefaultArrayConfig())
	if err := n.EnableSched(SchedConfig{Policy: "fcfs", Window: sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	addrs := []int64{9 << 20, 1 << 20, 5 << 20}
	var order []int64
	for i, a := range addrs {
		a := a
		eng.Spawn(fmt.Sprintf("req%d", i), func(p *sim.Process) {
			p.Sleep(sim.Time(i) * 10 * sim.Microsecond)
			if err := n.BlockIO(p, 1, a, 4096, false); err != nil {
				t.Errorf("req %d: %v", i, err)
			}
			order = append(order, a)
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if order[i] != a {
			t.Fatalf("service order %v, want arrival order %v", order, addrs)
		}
	}
	st, _ := n.SchedStats()
	if st.Reorders != 0 {
		t.Fatalf("fcfs reordered: %+v", st)
	}
}

// TestSchedControlFirst: control work (addr < 0) is served ahead of queued
// data requests regardless of policy.
func TestSchedControlFirst(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 0, disk.DefaultArrayConfig())
	if err := n.EnableSched(SchedConfig{Policy: "cscan", Window: sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var gotSync sim.Time
	eng.Spawn("data", func(p *sim.Process) {
		if err := n.BlockIO(p, 1, 1<<20, 64<<10, true); err != nil {
			t.Errorf("data: %v", err)
		}
	})
	eng.Spawn("sync", func(p *sim.Process) {
		p.Sleep(10 * sim.Microsecond)
		if _, err := n.Sync(p, sim.Millisecond); err != nil {
			t.Errorf("sync: %v", err)
		}
		gotSync = p.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if gotSync == 0 {
		t.Fatal("sync never completed")
	}
}

// TestSchedBreakEjects: failing the node ejects queued requests with ErrDown
// and the restore path accepts new ones, including a waiter caught inside its
// anticipation sleep.
func TestSchedBreakEjects(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, 0, disk.DefaultArrayConfig())
	if err := n.EnableSched(SchedConfig{Policy: "cscan", Window: 5 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var firstErr, secondErr error
	eng.Spawn("anticipating", func(p *sim.Process) {
		firstErr = n.BlockIO(p, 1, 1<<20, 4096, true)
	})
	eng.Spawn("queued", func(p *sim.Process) {
		p.Sleep(100 * sim.Microsecond)
		secondErr = n.BlockIO(p, 1, 2<<20, 4096, true)
	})
	eng.Spawn("chaos", func(p *sim.Process) {
		p.Sleep(sim.Millisecond) // inside the 5 ms anticipation window
		n.Fail(p)
		p.Sleep(20 * sim.Millisecond)
		n.Restore(p)
		if err := n.BlockIO(p, 1, 3<<20, 4096, false); err != nil {
			t.Errorf("post-restore request: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(firstErr, ErrDown) || !errors.Is(secondErr, ErrDown) {
		t.Fatalf("ejected errors = %v, %v; want ErrDown", firstErr, secondErr)
	}
}

// TestRandomPolicySeeded: the random policy's choices are a pure function of
// the seed.
func TestRandomPolicySeeded(t *testing.T) {
	run := func(seed uint64) []int64 {
		eng := sim.NewEngine()
		n := New(eng, 0, disk.DefaultArrayConfig())
		if err := n.EnableSched(SchedConfig{Policy: "random", Window: sim.Millisecond, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		var order []int64
		for i := 0; i < 6; i++ {
			i := i
			eng.Spawn(fmt.Sprintf("req%d", i), func(p *sim.Process) {
				p.Sleep(sim.Time(i) * 10 * sim.Microsecond)
				a := int64(i) << 20
				if err := n.BlockIO(p, 1, a, 4096, true); err != nil {
					t.Errorf("req %d: %v", i, err)
				}
				order = append(order, a)
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Logf("different seeds coincided (possible but suspicious): %v", a)
	}
}

// TestDeadlockListingNamesDispatcher pins the deadlock listing's entry for a
// request queued at a busy dispatcher whose holder never releases it.
func TestDeadlockListingNamesDispatcher(t *testing.T) {
	eng := sim.NewEngine()
	d, err := newDispatcher("ion3", SchedConfig{Policy: "fcfs"})
	if err != nil {
		t.Fatal(err)
	}
	hold := sim.NewBarrier(eng, "hold", 2)
	eng.Spawn("holder", func(p *sim.Process) {
		if err := d.Acquire(p, 0, 1); err != nil {
			t.Error(err)
		}
		hold.Wait(p)
	})
	eng.Spawn("waiter", func(p *sim.Process) {
		p.Sleep(sim.Microsecond)
		if err := d.Acquire(p, 0, 1); err != nil {
			t.Error(err)
		}
	})
	err = eng.Run()
	if err == nil {
		t.Fatal("want a deadlock error, got nil")
	}
	const want = "sim: deadlock at 0.000001s: 2 processes blocked forever: " +
		"holder(id=1,barrier:hold), waiter(id=2,ionode-sched:ion3)"
	if got := err.Error(); got != want {
		t.Fatalf("deadlock listing:\n got %s\nwant %s", got, want)
	}
}

// TestDispatcherAcquireAllocCeiling pins the dispatcher's request path at
// zero allocations per extra request: granted on arrival (no waiter at all),
// queued behind the request in service, and held for the anticipation window
// (a reused waiter each time).
func TestDispatcherAcquireAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race runtime allocates on its own")
	}
	cases := []struct {
		name   string
		cfg    SchedConfig
		procs  int
		queued bool // every request but the first queues behind another
	}{
		{"uncontended", SchedConfig{Policy: "fcfs"}, 1, false},
		{"contended", SchedConfig{Policy: "fcfs"}, 2, true},
		{"anticipated", SchedConfig{Policy: "cscan", Window: sim.Microsecond}, 1, false},
	}
	for _, tc := range cases {
		run := func(requests int) {
			eng := sim.NewEngine()
			d, err := newDispatcher("ion0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < tc.procs; j++ {
				eng.Spawn(fmt.Sprintf("req%d", j), func(p *sim.Process) {
					for k := 0; k < requests/tc.procs; k++ {
						if err := d.Acquire(p, int64(k)<<20, 4096); err != nil {
							t.Error(err)
						}
						p.Sleep(sim.Microsecond)
						d.Release(p)
					}
				})
			}
			if err := eng.Run(); err != nil {
				t.Error(err)
			}
			st := d.stats
			if st.Grants != int64(requests) || (st.QueuePeak > 0) != (tc.queued || tc.cfg.Window > 0) {
				t.Errorf("%s: stats %+v for %d requests", tc.name, st, requests)
			}
		}
		const n = 1000
		small := testing.AllocsPerRun(5, func() { run(n) })
		large := testing.AllocsPerRun(5, func() { run(2 * n) })
		perRequest := (large - small) / n
		t.Logf("%s: %.3f allocations per request", tc.name, perRequest)
		if perRequest > 0.01 {
			t.Errorf("%s: an extra request allocated %.3f times; want 0", tc.name, perRequest)
		}
	}
}

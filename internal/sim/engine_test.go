package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvancesWithSleep(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(5 * Second)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if e.Now() != 5*Second {
		t.Fatalf("engine now %v, want 5s", e.Now())
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1 b1 a2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestDeterministicTieBreaking(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
				p.Sleep(1 * Second) // all wake at the same instant
				order = append(order, i)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
		if a[i] != i {
			t.Fatalf("spawn-order ties broken wrong: %v", a)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Process) {
		p.Park("nothing", "")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !strings.Contains(err.Error(), "stuck(id=1,nothing)") {
		t.Fatalf("deadlock error missing the unnamed wait: %v", err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Process) {
		p.Sleep(3 * Second)
		e.SpawnAt("child", 2*Second, func(c *Process) {
			childAt = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 5*Second {
		t.Fatalf("child ran at %v, want 5s", childAt)
	}
}

func TestResourceFIFOAndMutualExclusion(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.SpawnAt(fmt.Sprintf("u%d", i), Time(i)*Millisecond, func(p *Process) {
			r.Acquire(p)
			p.Sleep(10 * Millisecond)
			order = append(order, i)
			r.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	// 5 serialized 10 ms services starting at t=0 finish at 50 ms.
	if e.Now() != 50*Millisecond {
		t.Fatalf("end time %v, want 50ms", e.Now())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "array", 2)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Process) {
			r.Use(p, 10*Millisecond)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 jobs, 2 at a time: 20 ms total.
	if e.Now() != 20*Millisecond {
		t.Fatalf("end time %v, want 20ms", e.Now())
	}
}

func TestResourceStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 1)
	for i := 0; i < 2; i++ {
		e.Spawn("u", func(p *Process) { r.Use(p, 10*Millisecond) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := r.StatsAt(e.Now())
	if st.Acquires != 2 {
		t.Fatalf("acquires = %d, want 2", st.Acquires)
	}
	if st.Utilization < 0.99 || st.Utilization > 1.01 {
		t.Fatalf("utilization = %f, want ~1", st.Utilization)
	}
	if st.TotalWait != 10*Millisecond {
		t.Fatalf("total wait = %v, want 10ms", st.TotalWait)
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	e := NewEngine()
	const n = 8
	b := NewBarrier(e, "phase", n)
	var times []Time
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("n%d", i), func(p *Process) {
			for round := 0; round < 3; round++ {
				p.Sleep(Time(i+1) * Millisecond) // stagger arrivals
				b.Wait(p)
				times = append(times, p.Now())
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3*n {
		t.Fatalf("got %d releases, want %d", len(times), 3*n)
	}
	for round := 0; round < 3; round++ {
		first := times[round*n]
		for i := 0; i < n; i++ {
			if times[round*n+i] != first {
				t.Fatalf("round %d not released together: %v", round, times[round*n:round*n+n])
			}
		}
	}
	if b.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", b.Rounds())
	}
}

func TestSequencerEnforcesOrder(t *testing.T) {
	e := NewEngine()
	s := NewSequencer(e, "msync")
	var order []int
	const n = 6
	for i := 0; i < n; i++ {
		i := i
		// Spawn in reverse so arrival order opposes turn order.
		e.SpawnAt(fmt.Sprintf("n%d", i), Time(n-i)*Millisecond, func(p *Process) {
			s.WaitTurn(p, i)
			order = append(order, i)
			p.Sleep(1 * Millisecond)
			s.Done(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequencer order violated: %v", order)
		}
	}
}

func TestQueueBlocksAndDelivers(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e, "mail")
	var got []int
	e.Spawn("consumer", func(p *Process) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(1 * Second)
			q.Put(p, i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e, "m")
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	e.Spawn("p", func(p *Process) { q.Put(p, "x") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
}

func TestCompletionAwaitBeforeAndAfterFire(t *testing.T) {
	e := NewEngine()
	c := NewCompletion("io")
	var waited, lateWaited Time
	e.Spawn("waiter", func(p *Process) {
		waited = c.Await(p)
	})
	e.Spawn("late", func(p *Process) {
		p.Sleep(10 * Second)
		lateWaited = c.Await(p)
	})
	e.Spawn("firer", func(p *Process) {
		p.Sleep(4 * Second)
		c.Complete(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 4*Second {
		t.Fatalf("early waiter waited %v, want 4s", waited)
	}
	if lateWaited != 0 {
		t.Fatalf("late waiter waited %v, want 0", lateWaited)
	}
	if c.CompletedAt() != 4*Second {
		t.Fatalf("completed at %v", c.CompletedAt())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Spawn("loop", func(p *Process) {
		for {
			p.Sleep(1 * Second)
			count++
			if count == 5 {
				e.Stop()
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 || e.Now() != 5*Second {
		t.Fatalf("count=%d now=%v", count, e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Process) {
		defer func() {
			if recover() == nil {
				t.Error("negative sleep did not panic")
			}
		}()
		p.Sleep(-1)
	})
	_ = e.Run()
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromMilliseconds(2.5) != 2500*Microsecond {
		t.Fatalf("FromMilliseconds(2.5) = %v", FromMilliseconds(2.5))
	}
	if got := (90 * Second).Seconds(); got != 90 {
		t.Fatalf("Seconds = %f", got)
	}
	if s := (Second + 345*Microsecond).String(); s != "1.000345s" {
		t.Fatalf("String = %q", s)
	}
}

// Property: the engine clock is monotonically non-decreasing across an
// arbitrary mix of sleeps by several processes.
func TestClockMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var last Time
		mono := true
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Process) {
				for j := i; j < len(delays); j += 4 {
					p.Sleep(Time(delays[j]) * Microsecond)
					if p.Now() < last {
						mono = false
					}
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return mono
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: for capacity-1 resources, total time equals the sum of service
// times when all requests arrive at t=0 (perfect serialization, no overlap).
func TestResourceSerializationProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		e := NewEngine()
		r := NewResource(e, "d", 1)
		var sum Time
		for i, v := range raw {
			d := Time(v) * Microsecond
			sum += d
			e.Spawn(fmt.Sprintf("u%d", i), func(p *Process) { r.Use(p, d) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministicAndSplit(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(42)
	d := c.Split()
	if c.Uint64() == d.Uint64() {
		t.Fatal("split stream identical to parent (suspicious)")
	}
}

func TestRNGBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
		if n := r.Intn(13); n < 0 || n >= 13 {
			t.Fatalf("Intn out of range: %d", n)
		}
		if u := r.Uniform(5, 9); u < 5 || u > 9 {
			t.Fatalf("Uniform out of range: %v", u)
		}
	}
	if r.Uniform(4, 4) != 4 {
		t.Fatal("Uniform degenerate range")
	}
}

func TestRNGJitterStaysClose(t *testing.T) {
	r := NewRNG(3)
	base := 100 * Millisecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.25)
		if j < 75*Millisecond || j > 125*Millisecond {
			t.Fatalf("jitter out of band: %v", j)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero jitter changed value")
	}
}

// TestDeadlockDiagnosticListing exercises the failure-path diagnostic: the
// blocked processes must be listed sorted by name (id as tiebreak) with their
// wait reasons, and the listing truncated past twelve entries.
func TestDeadlockDiagnosticListing(t *testing.T) {
	e := NewEngine()
	// Spawn in an order that is neither name- nor id-sorted so the test fails
	// if the diagnostic just dumps the live-process slice.
	names := []string{"m", "c", "z", "f", "a", "q", "t", "b", "k", "x", "d", "h", "p", "e", "g"}
	for _, name := range names {
		name := name
		e.Spawn(name, func(p *Process) {
			p.Park("waiting", name)
		})
	}
	err := e.Run()
	if err == nil {
		t.Fatal("want deadlock error, got nil")
	}
	msg := err.Error()
	if !strings.Contains(msg, "15 processes blocked forever") {
		t.Fatalf("missing blocked count: %v", msg)
	}
	// Sorted, the first twelve of the 15 names are a..p; q, t, x fall off the
	// end, so the truncation suffix must report 3 more.
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	var last int
	for _, name := range sorted[:12] {
		want := name + "(id="
		i := strings.Index(msg, want)
		if i < 0 {
			t.Fatalf("diagnostic missing %q: %v", want, msg)
		}
		if i < last {
			t.Fatalf("diagnostic out of name order at %q: %v", name, msg)
		}
		last = i
	}
	for _, name := range sorted[12:] {
		if strings.Contains(msg, name+"(id=") {
			t.Fatalf("diagnostic shows truncated process %q: %v", name, msg)
		}
	}
	if !strings.Contains(msg, "a(id=5,waiting:a)") {
		t.Fatalf("diagnostic missing wait reason: %v", msg)
	}
	if !strings.Contains(msg, "... (3 more)") {
		t.Fatalf("diagnostic missing truncation suffix: %v", msg)
	}
}

// explode is a named frame the panic test looks for in the process stack.
func explode() { panic("boom") }

// TestProcessPanicNamesProcess checks that a process panic reaches the
// driver carrying the process name and the process's own stack, which the
// coroutine handoff would otherwise drop.
func TestProcessPanicNamesProcess(t *testing.T) {
	e := NewEngine()
	e.Spawn("faulty", func(p *Process) {
		p.Sleep(Second)
		explode()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.Run()
	}()
	msg, _ := got.(string)
	for _, want := range []string{`process "faulty"`, "boom", "sim.explode"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic value missing %q: %v", want, got)
		}
	}
}

// TestProcessGoexitRetires checks runtime.Goexit in a process (t.Fatal in a
// test process): the process retires, the driver goroutine exits with it,
// the dead process is never reissued, and a later Run resumes the rest.
func TestProcessGoexitRetires(t *testing.T) {
	e := NewEngine()
	var quitter *Process
	quitter = e.Spawn("quitter", func(p *Process) {
		p.Sleep(Second)
		runtime.Goexit()
	})
	finished := false
	e.Spawn("worker", func(p *Process) {
		p.Sleep(2 * Second)
		finished = true
	})
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		_ = e.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned; want the driver to exit with the process")
	}
	if e.Living() != 1 || e.Now() != Second {
		t.Fatalf("after Goexit: living=%d now=%v, want 1 at 1s", e.Living(), e.Now())
	}
	if p := e.Spawn("next", func(*Process) {}); p == quitter {
		t.Fatal("Spawn reissued the Goexit-ed process")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !finished || e.Living() != 0 {
		t.Fatalf("second Run: finished=%v living=%d", finished, e.Living())
	}
}

// waitGoroutines polls until the goroutine count is back at most at want: a
// goroutine that has signalled completion may still be on its way out, and
// one an earlier test left exiting may finish after want was taken.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want at most %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutines checks that a completed run ends every process
// coroutine, including those parked on the free list for reuse.
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	r := NewResource(e, "disk", 1)
	for j := 0; j < 8; j++ {
		e.Spawn(fmt.Sprintf("u%d", j), func(p *Process) {
			for k := 0; k < 10; k++ {
				r.Use(p, Microsecond)
				e.Spawn("child", func(c *Process) { c.Sleep(Microsecond) })
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

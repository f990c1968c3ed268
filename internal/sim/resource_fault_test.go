package sim

import (
	"errors"
	"testing"
)

// A Break while requests are queued must eject every waiter with ErrBroken,
// leave the in-service holder to finish, and refuse new arrivals until Repair.
func TestBreakEjectsQueuedWaiters(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 1)
	var ejected int
	var holderDone Time

	e.Spawn("holder", func(p *Process) {
		if err := r.AcquireWait(p); err != nil {
			t.Errorf("holder acquire: %v", err)
		}
		p.Sleep(10 * Millisecond)
		r.Release(p)
		holderDone = p.Now()
	})
	for i := 0; i < 2; i++ {
		e.Spawn("waiter", func(p *Process) {
			p.Sleep(1 * Millisecond) // queue behind the holder
			if err := r.AcquireWait(p); errors.Is(err, ErrBroken) {
				ejected++
			} else if err == nil {
				r.Release(p)
			}
		})
	}
	e.Spawn("breaker", func(p *Process) {
		p.Sleep(2 * Millisecond)
		r.Break(p)
		if !r.Broken() {
			t.Error("Broken() false after Break")
		}
		if err := r.AcquireWait(p); !errors.Is(err, ErrBroken) {
			t.Errorf("acquire on broken resource: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ejected != 2 {
		t.Errorf("ejected waiters = %d, want 2", ejected)
	}
	if holderDone != 10*Millisecond {
		t.Errorf("holder finished at %v, want 10ms (in-flight service completes)", holderDone)
	}
	if !r.Broken() {
		t.Error("resource repaired without Repair")
	}
}

// A unit handed off by Release just before a Break stays granted: the woken
// waiter proceeds as a normal holder rather than seeing ErrBroken.
func TestGrantSurvivesImmediateBreak(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 1)
	var gotUnit bool

	e.Spawn("holder", func(p *Process) {
		r.Acquire(p)
		p.Sleep(5 * Millisecond)
		r.Release(p) // hands the unit to the waiter...
		r.Break(p)   // ...then the device fails, same instant
	})
	e.Spawn("waiter", func(p *Process) {
		p.Sleep(1 * Millisecond)
		if err := r.AcquireWait(p); err != nil {
			t.Errorf("granted waiter saw %v", err)
			return
		}
		gotUnit = true
		p.Sleep(1 * Millisecond)
		r.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotUnit {
		t.Error("waiter never received the handed-off unit")
	}
}

// Repair restores service: post-repair acquisitions succeed and are counted.
func TestRepairRestoresService(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dev", 1)
	e.Spawn("cycle", func(p *Process) {
		r.Break(p)
		if err := r.AcquireWait(p); !errors.Is(err, ErrBroken) {
			t.Fatalf("broken acquire: %v", err)
		}
		r.Repair()
		if r.Broken() {
			t.Error("Broken() true after Repair")
		}
		if err := r.AcquireWait(p); err != nil {
			t.Fatalf("post-repair acquire: %v", err)
		}
		p.Sleep(Millisecond)
		r.Release(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

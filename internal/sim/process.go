package sim

import (
	"fmt"
	"runtime/debug"
)

// Process is a single thread of simulated activity — in this reproduction, a
// compute node's program, an I/O node server, or a background policy daemon.
// A Process must only be used from its own coroutine (inside the fn passed to
// Spawn); the driver resumes one process at a time, so no two processes ever
// run concurrently.
//
// The struct and its coroutine outlive the process: when a process finishes,
// its coroutine parks on the engine's free list and a later Spawn reissues
// both, so process churn costs neither a goroutine nor a closure. When the
// run ends the parked coroutine is stopped or, on an engine attached to a
// Pool, passes to the pool, and a spawn on the next engine to take it from
// the pool reissues it there.
type Process struct {
	eng  *Engine
	id   int
	name string

	fn     func(p *Process)        // body the coroutine runs next; nil once started
	resume func() (struct{}, bool) // runs the coroutine until it yields
	stop   func()                  // ends the coroutine, unwinding a blocked process
	yield  func(struct{}) bool     // suspends the coroutine back to the driver

	procIdx     int // index in the engine's live-process list
	done        bool
	pendingWake bool
	granted     bool   // a Resource handed this waiter a unit; see AcquireWait
	blockedOn   waitOn // diagnostic: what primitive the process is parked in
}

// waitOn names what a parked process waits on, for the deadlock listing. It
// keeps the parts, not the text, so parking costs no string building; the
// listing formats them only when a deadlock is reported.
type waitOn struct {
	kind, name string // e.g. "resource", "pfs-meta"; kind is "" while running
	turn       int    // a sequencer waiter's turn, when hasTurn
	hasTurn    bool
}

// String renders the wait as kind:name, kind:name[turn] for a sequencer, or
// the bare kind when the wait has no name.
func (w waitOn) String() string {
	switch {
	case w.hasTurn:
		return fmt.Sprintf("%s:%s[%d]", w.kind, w.name, w.turn)
	case w.name == "":
		return w.kind
	}
	return w.kind + ":" + w.name
}

// loop is the body of a process's coroutine. It runs the current fn, then
// parks on the free list — handing the driver the next due process — until
// a later Spawn reissues the process (yield returns true), possibly on
// another engine of the same pool, or the engine or the pool stops the
// coroutine (yield returns false). A process unwound by the engine is not
// recycled: its coroutine ends.
func (p *Process) loop(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() {
		e := p.eng
		e.recycle(p)
		e.handoff = e.advance()
		if !yield(struct{}{}) {
			return
		}
	}
}

// unwound is the panic value block raises when the engine stops a blocked
// process's coroutine; run recovers it.
type unwound struct{}

// run executes the process's fn and retires the process. It reports false
// when the process was unwound instead of finishing. iter.Pull re-raises a
// process panic in the driver without the process's stack, so the panic is
// re-raised here first with the process name and that stack. runtime.Goexit
// (t.Fatal in a test process) retires the process too, but its coroutine dies
// with it, so loop never recycles it; iter.Pull then Goexits the driver.
func (p *Process) run() (finished bool) {
	defer func() {
		if r := recover(); r != nil && r != (unwound{}) {
			panic(fmt.Sprintf("sim: process %q panicked: %v\n\nprocess stack:\n%s", p.name, r, debug.Stack()))
		}
		p.done = true
		p.eng.living--
		p.eng.unregister(p)
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return true
}

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// block suspends the process until its next wake event pops. The blocking
// process runs the engine's dispatch step itself: when its own wake-up is the
// next event, block returns without any switch at all; otherwise it hands
// over to the successor advance pops.
func (p *Process) block(why waitOn) {
	if next := p.eng.advance(); next != p {
		p.handOff(why, next)
	}
}

// handOff leaves next (nil when nothing is runnable) for the driver and
// yields. The yield returns false when the run has ended with the process
// still blocked and the engine stops its coroutine; handOff then unwinds the
// process (its deferred calls run) back to run.
func (p *Process) handOff(why waitOn, next *Process) {
	p.blockedOn = why
	p.eng.handoff = next
	if !p.yield(struct{}{}) {
		panic(unwound{})
	}
	p.blockedOn.kind = ""
}

// Sleep advances this process's local activity by d: it blocks and resumes
// once the simulated clock has advanced by d. Sleeping for zero time yields
// to other processes scheduled at the same instant.
//
// A running process has no pending event, so its wake competes only with the
// queue's head. When the wake is strictly earlier than the head (or the queue
// is empty), it would be the next event popped: the process takes a schedule
// sequence number, advances the clock and keeps running, with no heap
// operation and no switch. An equal time loses the tie, because the new
// sequence number is the largest. Otherwise one replace-top swaps the wake in
// for the head, which is dispatched as advance would: the heap's pop order is
// the same (time, sequence) order, so the clock and every wake order are
// those of a push followed by a pop. A stopped engine takes the general path.
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %q", d, p.name))
	}
	e := p.eng
	at := e.now + d
	if e.stopped {
		e.schedule(p, at)
		p.block(waitOn{kind: "sleep"})
		return
	}
	e.seq++
	q := &e.events
	if len(q.ev) == 0 || at < q.ev[0].at {
		e.now = at
		return
	}
	p.pendingWake = true
	next := e.dispatch(q.replaceTop(event{at: at, seq: e.seq, p: p}))
	if next == nil {
		next = e.advance()
	}
	if next != p {
		p.handOff(waitOn{kind: "sleep"}, next)
	}
}

// Park blocks the process indefinitely until some other process wakes it via
// Wake. It is the building block for resources and barriers. Parking
// with nobody to wake you is a deadlock, which Engine.Run reports, listing
// the process as waiting on kind:name (or kind alone when name is empty).
// Both are stored as given and formatted only for that report, so a caller
// passes the primitive's existing name rather than building a string.
func (p *Process) Park(kind, name string) {
	p.block(waitOn{kind: kind, name: name})
}

// Wake schedules a parked process to resume at the current simulated time.
// It must be called by the currently running process (or before Run starts).
// Waking a process that already has a pending wake is a programming error and
// panics, because it indicates two primitives both believe they own the
// parked process.
func (p *Process) Wake(target *Process) {
	p.eng.schedule(target, p.eng.now)
}

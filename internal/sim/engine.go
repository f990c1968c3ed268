// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine is the substrate for the whole reproduction: the simulated Intel
// Paragon XP/S machine model, the PFS parallel file system, and the
// application skeletons all run as sim processes against one virtual clock.
//
// Concurrency model: every process is a coroutine (iter.Pull), and the
// goroutine that calls Engine.Run is its engine's driver. Exactly one of
// them runs at any instant. The driver pops the next event from a stable
// priority queue (ordered by time, then by schedule sequence number) and
// resumes that event's process; the process runs until it blocks on a
// simulation primitive (Sleep, Park, Resource.Acquire, Barrier.Wait, ...) and
// then yields back. Because scheduling order is a pure function of the event
// queue contents, identical inputs produce identical traces, bit for bit.
//
// Hot-path design: the event queue is an inlined 4-ary min-heap specialized
// to the event struct — no interface boxing, no per-event allocation once the
// backing array has grown. A blocking process runs the dispatch step itself
// (Engine.advance): when its own wake-up is the next event it keeps running
// with no switch at all, and otherwise it leaves the popped successor in
// Engine.handoff and yields, so the driver resumes the successor directly.
// A coroutine switch hands the thread straight to the resumed goroutine
// without readying it through the scheduler, so no idle P is woken. A
// finished process parks its coroutine on the engine's free list and a later
// Spawn reissues it, so process churn costs neither a goroutine nor a
// closure. When a run ends, the processes still blocked are unwound and the
// parked coroutines are stopped, so no goroutine outlives it — unless the
// engine is attached to a Pool. Then the parked coroutines and the emptied
// event and process arrays pass to the pool, the next engine attached to it
// reissues them, and the driver's Pool.Close stops what is left.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine owns the virtual clock and the event queue, and coordinates the
// lock-step execution of all simulation processes. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now    Time
	events eventQueue
	seq    uint64 // monotonically increasing schedule sequence, breaks ties
	nextID int

	living  int
	stopped bool
	handoff *Process   // successor a yielding process popped for the driver; nil ends the run
	procs   []*Process // live processes, for deadlock diagnostics
	free    []*Process // finished processes whose parked coroutines are reusable; SetPool seeds it

	batch []event // scratch for scheduleBatch
	pool  *Pool   // receives free and the arrays when Run ends; nil stops free's coroutines
}

// NewEngine returns an engine with the clock at time zero and no processes.
func NewEngine() *Engine {
	return &Engine{}
}

// SetPool attaches the engine to pool, or detaches it when pool is nil. The
// engine takes the kit the pool got last (see Pool): its arrays become the
// engine's, and its parked processes become the engine's free list, so
// Spawn reissues them as it does the engine's own. Run then leaves its
// parked coroutines and emptied arrays in the pool instead of stopping the
// coroutines. Process ids, sequence numbers and wake order stay the
// engine's own, so a pooled engine runs exactly as a fresh one. Call it
// before Run.
func (e *Engine) SetPool(pool *Pool) {
	e.pool = pool
	if pool == nil {
		return
	}
	if k, ok := pool.take(); ok {
		// Whatever the engine already scheduled or spawned keeps its order
		// (and its procIdx) in the warm arrays.
		e.events.ev = append(k.events, e.events.ev...)
		e.procs = append(k.procs, e.procs...)
		e.free = append(k.free, e.free...)
		e.batch = k.batch
	}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// event is a scheduled resumption of a process.
type event struct {
	at  Time
	seq uint64
	p   *Process
}

// before is the queue's strict total order: time, then schedule sequence.
// Sequences are unique, so no two distinct events compare equal and the pop
// order is fully determined by the queue contents.
func (ev event) before(o event) bool {
	return ev.at < o.at || (ev.at == o.at && ev.seq < o.seq)
}

// eventQueue is a 4-ary min-heap of events ordered by (time, sequence). It
// is specialized to the event type: push and pop move values within one
// backing slice, so the steady-state event loop performs zero allocations —
// unlike container/heap, whose interface methods box every element through
// `any` on the way in and out. The higher arity halves the tree depth, which
// matters because pops (the sift-down path) dominate a simulation's queue
// traffic.
type eventQueue struct {
	ev []event
}

// push inserts ev, sifting the hole up toward the root.
func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = ev
}

// pop removes and returns the minimum event, sifting the displaced tail
// element down from the root.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // drop the *Process reference for the collector
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// replaceTop returns the minimum event and puts ev in its place, sifting ev
// down from the root: one sift where a push and a pop would take two.
func (q *eventQueue) replaceTop(ev event) event {
	top := q.ev[0]
	q.siftDown(0, ev)
	return top
}

// siftDown places ev at hole i, pushing smaller children up toward the root's
// former position. The slice beyond i must already satisfy the heap property.
func (q *eventQueue) siftDown(i int, ev event) {
	n := len(q.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for k := c + 1; k < end; k++ {
			if q.ev[k].before(q.ev[min]) {
				min = k
			}
		}
		if !q.ev[min].before(ev) {
			break
		}
		q.ev[i] = q.ev[min]
		i = min
	}
	q.ev[i] = ev
}

// pushBatch inserts evs. Small batches sift each element up as push does;
// batches comparable to the queue size append everything and re-heapify,
// which is O(n+m) instead of O(m log n). Either way the heap's pop order is
// the total (time, sequence) order, so batching cannot change scheduling.
func (q *eventQueue) pushBatch(evs []event) {
	n := len(q.ev)
	if m := len(evs); m < 16 || m < n/4 {
		for _, ev := range evs {
			q.push(ev)
		}
		return
	}
	q.ev = append(q.ev, evs...)
	for i := (len(q.ev) - 2) >> 2; i >= 0; i-- {
		q.siftDown(i, q.ev[i])
	}
}

func (e *Engine) schedule(p *Process, at Time) {
	e.checkWake(p, at)
	p.pendingWake = true
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p})
}

// scheduleBatch schedules every process in procs to resume at the same
// instant, in slice order — the sequence numbers are assigned in order, so
// the pop order matches what repeated schedule calls would produce, but the
// heap is rebuilt once instead of sifted per wake. Barrier releases and
// completion broadcasts are the callers: a 1024-node barrier release is one
// heapify, not 1024 sift-ups.
func (e *Engine) scheduleBatch(procs []*Process, at Time) {
	if len(procs) == 0 {
		return
	}
	e.batch = e.batch[:0]
	for _, p := range procs {
		e.checkWake(p, at)
		p.pendingWake = true
		e.seq++
		e.batch = append(e.batch, event{at: at, seq: e.seq, p: p})
	}
	e.events.pushBatch(e.batch)
	for i := range e.batch {
		e.batch[i] = event{} // drop *Process refs for the collector
	}
}

func (e *Engine) checkWake(p *Process, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q in the past (%v < %v)", p.name, at, e.now))
	}
	if p.pendingWake {
		panic(fmt.Sprintf("sim: process %q woken twice", p.name))
	}
	if p.done {
		// The process finished and may already have been reissued to a new
		// Spawn; a wake here means some primitive still believes it owns it.
		panic(fmt.Sprintf("sim: waking finished process %q", p.name))
	}
}

// Spawn creates a new process named name executing fn and schedules it to
// start at the current simulated time. It may be called before Run or from
// within a running process.
func (e *Engine) Spawn(name string, fn func(p *Process)) *Process {
	return e.SpawnAt(name, 0, fn)
}

// SpawnAt creates a new process that starts after the given delay from the
// current simulated time. A finished process's struct and parked coroutine
// are reissued when the free list holds one, so a recycled spawn starts no
// goroutine; otherwise a new coroutine is created.
func (e *Engine) SpawnAt(name string, delay Time, fn func(p *Process)) *Process {
	if delay < 0 {
		panic("sim: negative spawn delay")
	}
	e.nextID++
	var p *Process
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.eng = e // a pooled process last ran on another engine
		p.done = false
	} else {
		p = &Process{eng: e}
		p.start()
	}
	p.id = e.nextID
	p.name = name
	p.fn = fn
	e.living++
	p.procIdx = len(e.procs)
	e.procs = append(e.procs, p)
	e.schedule(p, e.now+delay)
	return p
}

// advance pops events until it finds a process to run, advancing the clock
// and discarding stale wakes of finished processes along the way. It returns
// nil when the run is over: queue drained or Stop called. The driver and
// blocking processes both dispatch through advance, so the executed event
// order does not depend on which of them runs it.
func (e *Engine) advance() *Process {
	for !e.stopped && len(e.events.ev) > 0 {
		if p := e.dispatch(e.events.pop()); p != nil {
			return p
		}
	}
	return nil
}

// dispatch takes an event off the queue: it advances the clock to it and
// returns its process, or recycles the process of a stale event and returns
// nil.
func (e *Engine) dispatch(ev event) *Process {
	ev.p.pendingWake = false
	if ev.p.done {
		// Stale event for a finished process. Now that it has left the
		// queue nothing references the process, so it can be reused.
		e.recycle(ev.p)
		return nil
	}
	e.now = ev.at
	return ev.p
}

// unregister removes a finished process from the live-process list
// (swap-remove; the list is unordered and only read by the deadlock
// diagnostic, which sorts on the failure path).
func (e *Engine) unregister(p *Process) {
	last := len(e.procs) - 1
	e.procs[p.procIdx] = e.procs[last]
	e.procs[p.procIdx].procIdx = p.procIdx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// recycle returns a finished process's struct and parked coroutine to the
// spawn free list. A process with a wake still pending has a stale event in
// the queue referencing it; it is recycled when that event pops instead, so
// a reused struct can never be resumed by a dead process's event.
func (e *Engine) recycle(p *Process) {
	if p.pendingWake {
		return
	}
	e.free = append(e.free, p)
}

// release lets go of the coroutines parked on the free list. Without a pool
// it stops each, so its goroutine exits; with one, the pool takes them with
// the engine's emptied arrays (see Pool.put). Either way the free list is
// left empty.
func (e *Engine) release() {
	if e.pool != nil {
		e.pool.put(e)
		return
	}
	for i, p := range e.free {
		p.stop()
		e.free[i] = nil
	}
	e.free = e.free[:0]
}

// unwind stops the coroutine of every process still living when a run
// ends, so none stays parked forever. A blocked process unwinds through its
// deferred calls and retires; one that never started (or was reissued from
// the free list and never resumed) is retired here. Either way its
// coroutine ends: an unwound process never reaches the free list or a pool.
func (e *Engine) unwind() {
	for n := len(e.procs); n > 0; n = len(e.procs) {
		p := e.procs[n-1]
		p.stop()
		if !p.done {
			p.done = true
			e.living--
			e.unregister(p)
		}
	}
}

// Run executes events until the event queue drains or Stop is called. It
// returns an error if processes remain blocked with no pending events
// (deadlock). A panic in a process is re-raised in the caller, naming the
// process and carrying its stack. The calling goroutine is the driver: it
// resumes one process at a time, and each yields back the successor it
// popped. When Run returns, blocked processes are unwound, so an engine
// cannot be run on after a Stop or a deadlock, and every process coroutine
// has ended except those a pool now holds (see SetPool). Unwinding comes
// first: a deferred call may still spawn or schedule on the engine.
func (e *Engine) Run() error {
	for p := e.advance(); p != nil; p = e.handoff {
		e.handoff = nil
		p.resume()
	}
	var err error
	if !e.stopped && e.living > 0 {
		err = e.deadlockError()
	}
	e.unwind()
	e.release()
	return err
}

// Stop halts Run after the currently running event completes. Processes
// still blocked are unwound when Run returns; Stop is intended for "simulate
// this many frames then stop caring" scenarios, mirroring the paper's
// abbreviated RENDER runs.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Living reports the number of processes spawned and not yet finished.
func (e *Engine) Living() int { return e.living }

// deadlockError builds the blocked-process listing. It runs only on the
// failure path, so healthy runs never pay for the copy, sort, or formatting.
func (e *Engine) deadlockError() error {
	blocked := make([]*Process, len(e.procs))
	copy(blocked, e.procs)
	sort.Slice(blocked, func(i, j int) bool {
		if blocked[i].name != blocked[j].name {
			return blocked[i].name < blocked[j].name
		}
		return blocked[i].id < blocked[j].id
	})
	const max = 12
	shown := blocked
	if len(shown) > max {
		shown = shown[:max]
	}
	parts := make([]string, len(shown))
	for i, p := range shown {
		parts[i] = fmt.Sprintf("%s(id=%d,%s)", p.name, p.id, p.blockedOn)
	}
	suffix := ""
	if len(blocked) > max {
		suffix = fmt.Sprintf(", ... (%d more)", len(blocked)-max)
	}
	return fmt.Errorf("sim: deadlock at %v: %d processes blocked forever: %s%s",
		e.now, e.living, strings.Join(parts, ", "), suffix)
}

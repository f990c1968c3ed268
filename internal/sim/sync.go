package sim

import "fmt"

// Barrier synchronizes a fixed group of processes: each caller of Wait blocks
// until n processes have arrived, then all are released at the same simulated
// instant (resuming in arrival order). Barriers are reusable across rounds.
// The application skeletons use barriers for the paper's "synchronized
// compute/write cycles" (ESCAT §5.1).
type Barrier struct {
	eng     *Engine
	name    string
	n       int
	arrived []*Process
	rounds  int64
}

// NewBarrier creates a barrier for groups of n processes (n >= 1).
func NewBarrier(eng *Engine, name string, n int) *Barrier {
	if n < 1 {
		panic(fmt.Sprintf("sim: barrier %q size %d < 1", name, n))
	}
	return &Barrier{eng: eng, name: name, n: n}
}

// Wait blocks p until the barrier's group is complete.
func (b *Barrier) Wait(p *Process) {
	if b.n == 1 {
		b.rounds++
		return
	}
	if len(b.arrived) == b.n-1 {
		// Last arrival releases everyone, in arrival order, as one batched
		// heap insertion. scheduleBatch copies the group, so the barrier
		// keeps its array for the next round.
		b.rounds++
		p.eng.scheduleBatch(b.arrived, p.eng.now)
		clear(b.arrived)
		b.arrived = b.arrived[:0]
		return
	}
	b.arrived = append(b.arrived, p)
	p.Park("barrier", b.name)
}

// Rounds reports how many times the barrier has completed.
func (b *Barrier) Rounds() int64 { return b.rounds }

// Sequencer releases waiters in a caller-specified total order: a process
// calling WaitTurn(p, k) blocks until all turns < k have completed and then
// runs its critical section; Done advances the sequence. It models PFS's
// M_SYNC mode, where nodes must perform I/O in node-number order.
type Sequencer struct {
	eng     *Engine
	name    string
	next    int
	waiting map[int]*Process
}

// NewSequencer creates a sequencer whose first turn is 0.
func NewSequencer(eng *Engine, name string) *Sequencer {
	return &Sequencer{eng: eng, name: name, waiting: make(map[int]*Process)}
}

// WaitTurn blocks p until turn becomes current. Turns must be used exactly
// once each and every turn up to the largest used must eventually be claimed,
// or the simulation deadlocks (and Engine.Run reports it).
func (s *Sequencer) WaitTurn(p *Process, turn int) {
	if turn == s.next {
		return
	}
	if _, dup := s.waiting[turn]; dup {
		panic(fmt.Sprintf("sim: sequencer %q turn %d claimed twice", s.name, turn))
	}
	s.waiting[turn] = p
	p.block(waitOn{kind: "sequencer", name: s.name, turn: turn, hasTurn: true})
}

// Done completes the current turn and wakes the owner of the next one, if it
// is already waiting.
func (s *Sequencer) Done(p *Process) {
	s.next++
	if w, ok := s.waiting[s.next]; ok {
		delete(s.waiting, s.next)
		p.Wake(w)
	}
}

// Next reports the turn number that will run next.
func (s *Sequencer) Next() int { return s.next }

// Completion is a one-shot event that processes can wait on; it models the
// completion side of asynchronous I/O. Multiple processes may wait; all are
// released when Complete fires. Waiting on an already-completed Completion
// returns immediately.
type Completion struct {
	name    string
	done    bool
	at      Time
	waiters []*Process
	first   [1]*Process // backs waiters for the usual lone waiter
}

// NewCompletion creates a pending completion. Its waiter list starts in the
// completion's own storage, so a lone waiter's Await allocates nothing.
func NewCompletion(name string) *Completion {
	c := &Completion{name: name}
	c.waiters = c.first[:0]
	return c
}

// CompletedAt returns the simulated time Complete fired (zero if pending).
func (c *Completion) CompletedAt() Time { return c.at }

// Complete fires the event, waking all waiters.
func (c *Completion) Complete(p *Process) {
	if c.done {
		panic(fmt.Sprintf("sim: completion %q fired twice", c.name))
	}
	c.done = true
	c.at = p.Now()
	p.eng.scheduleBatch(c.waiters, p.eng.now)
	clear(c.waiters)
	c.waiters = nil
}

// Await blocks p until the completion fires (or returns immediately if it
// already has). It returns the time spent waiting.
func (c *Completion) Await(p *Process) Time {
	if c.done {
		return 0
	}
	start := p.Now()
	c.waiters = append(c.waiters, p)
	p.Park("completion", c.name)
	return p.Now() - start
}

package ionode

import (
	"fmt"

	"repro/internal/sim"
)

// SchedConfig selects the disk-scheduling policy in front of a node's array.
// An empty Policy keeps the legacy strict-FIFO resource queue, byte-identical
// to earlier revisions; any named policy routes requests through a dispatcher
// that picks the next request to service when the array frees up.
type SchedConfig struct {
	// Policy names the scheduling discipline: "" (legacy FIFO resource),
	// "fcfs", "cscan", "sstf", or "random".
	Policy string

	// Window is the anticipatory batching bound: when a request arrives at an
	// idle array it is held for up to Window so that requests arriving just
	// behind it are scheduled together (C-SCAN over a batch instead of FCFS
	// over singletons). 0 disables anticipation.
	Window sim.Time

	// Seed feeds the policy's random stream (used by "random"; deterministic
	// tie-breaking policies ignore it). Each node derives its own substream.
	Seed uint64
}

// DefaultWindow is a reasonable anticipatory batching bound: long enough to
// collect a round's worth of near-simultaneous arrivals at an idle array,
// short enough not to idle the disk visibly between batches.
const DefaultWindow = 500 * sim.Microsecond

// Validate rejects unknown policy names.
func (c SchedConfig) Validate() error {
	if c.Policy == "" {
		return nil
	}
	_, err := newPolicy(c.Policy)
	return err
}

// Policy picks which pending request the array services next. addrs holds
// the pending requests' starting array addresses in arrival order; head is
// where the arm ended after the previous grant. Implementations must be
// deterministic given (head, addrs, rng state).
type Policy interface {
	Name() string
	Next(head int64, addrs []int64, rng *sim.RNG) int
}

func newPolicy(name string) (Policy, error) {
	switch name {
	case "fcfs":
		return fcfsPolicy{}, nil
	case "cscan":
		return cscanPolicy{}, nil
	case "sstf":
		return sstfPolicy{}, nil
	case "random":
		return randomPolicy{}, nil
	}
	return nil, fmt.Errorf("ionode: unknown scheduling policy %q (want fcfs, cscan, sstf or random)", name)
}

// fcfsPolicy services requests in arrival order — the paper-faithful
// baseline, expressed through the dispatcher so policies compare like for
// like (same anticipation window, same accounting).
type fcfsPolicy struct{}

func (fcfsPolicy) Name() string                                   { return "fcfs" }
func (fcfsPolicy) Next(head int64, addrs []int64, _ *sim.RNG) int { return 0 }

// cscanPolicy is the circular elevator: service the pending request with the
// smallest address at or past the head, wrapping to the globally smallest
// address when nothing lies ahead. Ties break by arrival order (sort is not
// needed; one scan suffices).
type cscanPolicy struct{}

func (cscanPolicy) Name() string { return "cscan" }

func (cscanPolicy) Next(head int64, addrs []int64, _ *sim.RNG) int {
	ahead, lowest := -1, 0
	for i, a := range addrs {
		if a >= head && (ahead < 0 || a < addrs[ahead]) {
			ahead = i
		}
		if a < addrs[lowest] {
			lowest = i
		}
	}
	if ahead >= 0 {
		return ahead
	}
	return lowest
}

// sstfPolicy services the pending request closest to the head (shortest seek
// time first). Ties break by arrival order.
type sstfPolicy struct{}

func (sstfPolicy) Name() string { return "sstf" }

func (sstfPolicy) Next(head int64, addrs []int64, _ *sim.RNG) int {
	best := 0
	bestDist := dist(addrs[0], head)
	for i, a := range addrs[1:] {
		if d := dist(a, head); d < bestDist {
			best, bestDist = i+1, d
		}
	}
	return best
}

func dist(a, b int64) int64 {
	if a < b {
		return b - a
	}
	return a - b
}

// randomPolicy picks uniformly from the pending requests using the seeded
// stream — the control policy demonstrating that scheduling runs off the
// deterministic RNG, and a worst-case for positioning time.
type randomPolicy struct{}

func (randomPolicy) Name() string { return "random" }

func (randomPolicy) Next(_ int64, addrs []int64, rng *sim.RNG) int {
	return rng.Intn(len(addrs))
}

// schedWaiter is one request pending at the dispatcher. addr < 0 marks
// position-less control work (flush round-trips, scrub and rebuild slices),
// which every policy serves ahead of data requests in arrival order.
type schedWaiter struct {
	p            *sim.Process
	addr, span   int64
	ejected      bool
	anticipating bool
}

// dispatcher replaces the node's FIFO resource with a policy-driven,
// capacity-1 server: at most one request is in service; when it completes,
// the policy picks the next among the queued waiters. A request arriving at
// an idle server may first hold it for the anticipation window so near-
// simultaneous arrivals are scheduled as a batch.
type dispatcher struct {
	name   string
	pol    Policy
	window sim.Time
	rng    *sim.RNG

	busy    bool
	broken  bool
	head    int64 // array address where the previous grant ended
	waiters []*schedWaiter
	spare   []*schedWaiter // waiters whose Acquire returned, for reuse
	scratch []int64

	stats SchedStats
}

// SchedStats counts a dispatcher's decisions.
type SchedStats struct {
	Policy      string
	Grants      int64 // requests granted service
	Reorders    int64 // grants that bypassed strict arrival order
	Wraps       int64 // elevator wrap-arounds (grant address below the head)
	Anticipated int64 // anticipation windows that gathered extra requests
	QueuePeak   int   // largest pending-request population observed
}

func newDispatcher(name string, cfg SchedConfig) (*dispatcher, error) {
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	return &dispatcher{
		name:   name,
		pol:    pol,
		window: cfg.Window,
		rng:    sim.NewRNG(cfg.Seed),
		stats:  SchedStats{Policy: pol.Name()},
	}, nil
}

// Acquire queues p for the service slot; it returns once the policy grants
// service (the caller then sleeps its service time and calls Release), or
// sim.ErrBroken if the node fails while the request is pending. A request
// granted on arrival builds no waiter; a queued one borrows a spare.
func (d *dispatcher) Acquire(p *sim.Process, addr, span int64) error {
	if d.broken {
		return sim.ErrBroken
	}
	if !d.busy && (d.window <= 0 || addr < 0) {
		d.busy = true
		d.grant(addr, span, 0)
		return nil
	}
	var w *schedWaiter
	if n := len(d.spare); n > 0 {
		w = d.spare[n-1]
		d.spare = d.spare[:n-1]
	} else {
		w = new(schedWaiter)
	}
	*w = schedWaiter{p: p, addr: addr, span: span}
	err := d.wait(p, w)
	// Every path out of wait has taken w off the queue: the grant took it,
	// or Break dropped it.
	w.p = nil
	d.spare = append(d.spare, w)
	return err
}

// wait queues w behind the request in service, or holds the idle server for
// the anticipation window and lets the policy choose among the gathered
// requests.
func (d *dispatcher) wait(p *sim.Process, w *schedWaiter) error {
	if d.busy {
		d.push(w)
		p.Park("ionode-sched", d.name)
		if w.ejected {
			return sim.ErrBroken
		}
		return nil
	}
	d.busy = true
	// Anticipation: hold the idle server briefly so requests arriving just
	// behind this one are scheduled as a batch.
	w.anticipating = true
	d.push(w)
	p.Sleep(d.window)
	w.anticipating = false
	if w.ejected {
		d.busy = false
		return sim.ErrBroken
	}
	if len(d.waiters) > 1 {
		d.stats.Anticipated++
	}
	i := d.pick()
	next := d.take(i)
	d.grant(next.addr, next.span, i)
	if next == w {
		return nil
	}
	p.Wake(next.p)
	p.Park("ionode-sched", d.name)
	if w.ejected {
		return sim.ErrBroken
	}
	return nil
}

// Release completes the in-service request: the policy picks the next waiter
// or the server goes idle.
func (d *dispatcher) Release(p *sim.Process) {
	if !d.busy {
		panic(fmt.Sprintf("ionode: release of idle dispatcher %q", d.name))
	}
	if len(d.waiters) == 0 {
		d.busy = false
		return
	}
	i := d.pick()
	w := d.take(i)
	d.grant(w.addr, w.span, i)
	p.Wake(w.p)
}

// Break ejects every pending request (their Acquire returns sim.ErrBroken)
// and refuses new arrivals until Repair; the request in service completes.
// A waiter inside its anticipation sleep cannot be woken (its timer wake is
// pending) — it is flagged and cleans up when the sleep returns.
func (d *dispatcher) Break(p *sim.Process) {
	if d.broken {
		return
	}
	d.broken = true
	for _, w := range d.waiters {
		w.ejected = true
		if !w.anticipating {
			p.Wake(w.p)
		}
	}
	d.waiters = d.waiters[:0]
}

// Repair restores service after Break.
func (d *dispatcher) Repair() { d.broken = false }

func (d *dispatcher) push(w *schedWaiter) {
	d.waiters = append(d.waiters, w)
	if n := len(d.waiters); n > d.stats.QueuePeak {
		d.stats.QueuePeak = n
	}
}

// pick chooses the next waiter: control requests (addr < 0) go first in
// arrival order; otherwise the policy chooses among the data requests.
func (d *dispatcher) pick() int {
	for i, w := range d.waiters {
		if w.addr < 0 {
			return i
		}
	}
	d.scratch = d.scratch[:0]
	for _, w := range d.waiters {
		d.scratch = append(d.scratch, w.addr)
	}
	i := d.pol.Next(d.head, d.scratch, d.rng)
	if i < 0 || i >= len(d.waiters) {
		panic(fmt.Sprintf("ionode: policy %q picked %d of %d", d.pol.Name(), i, len(d.waiters)))
	}
	return i
}

func (d *dispatcher) take(i int) *schedWaiter {
	w := d.waiters[i]
	d.waiters = append(d.waiters[:i], d.waiters[i+1:]...)
	return w
}

func (d *dispatcher) grant(addr, span int64, picked int) {
	d.stats.Grants++
	if picked != 0 {
		d.stats.Reorders++
	}
	if addr >= 0 {
		if addr < d.head {
			d.stats.Wraps++
		}
		d.head = addr + span
	}
}

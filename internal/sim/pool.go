package sim

import "sync"

// Pool carries what a finished engine would throw away over to the next
// engine a driver builds: the coroutines parked on its free list, and the
// emptied backing arrays of its event heap and process lists. A driver that
// runs many engines (a fleet's cells, a resilient run's attempts) attaches
// each one with SetPool and defers Close.
//
// The zero value is an empty pool. Engines running on different goroutines
// may share one: every access takes the pool's lock, which an engine does
// twice, in SetPool and when its Run ends.
type Pool struct {
	mu   sync.Mutex
	kits []kit // one per engine that finished a run, the newest last
}

// kit is what one engine leaves the pool when its run ends: its free list,
// whose processes' coroutines are parked, and its other arrays, emptied.
// Kits stay whole rather than pooling processes one by one. The worker that
// takes the newest kit is most often the one that just left it, so a
// cell's coroutine stacks and arrays stay in the cache of the CPU that last
// touched them; a shared list of single processes interleaves two fleet
// workers' coroutines, and at two workers measured no faster than no pool.
type kit struct {
	events, batch []event
	procs, free   []*Process
}

// Close stops every coroutine parked in the pool, so its goroutine exits,
// and drops the pooled arrays. Call it once every engine attached to the
// pool has returned from Run.
func (pl *Pool) Close() {
	pl.mu.Lock()
	kits := pl.kits
	pl.kits = nil
	pl.mu.Unlock()
	for _, k := range kits {
		for _, p := range k.free {
			p.stop()
		}
	}
}

// take removes the newest kit.
func (pl *Pool) take() (kit, bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := len(pl.kits)
	if n == 0 {
		return kit{}, false
	}
	k := pl.kits[n-1]
	pl.kits[n-1] = kit{}
	pl.kits = pl.kits[:n-1]
	return k, true
}

// put takes over e's free list and its emptied arrays, and leaves e holding
// none of them: e never aliases an array another engine was handed.
func (pl *Pool) put(e *Engine) {
	clear(e.events.ev)
	k := kit{events: e.events.ev[:0], batch: e.batch[:0], procs: e.procs[:0], free: e.free}
	e.events.ev, e.batch, e.procs, e.free = nil, nil, nil, nil
	pl.mu.Lock()
	pl.kits = append(pl.kits, k)
	pl.mu.Unlock()
}

package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// The wake-order test runs random process scripts twice: on the engine, and
// on a reference model that keeps every pending resumption in a plain list
// and always takes the smallest (time, schedule sequence). Both must resume
// the same processes at the same instants in the same order.

type wakeOpKind int

const (
	wakeSleep wakeOpKind = iota // sleep d (zero and equal-time ties included)
	wakePark                    // park until another process wakes it
	wakeOne                     // wake the longest-parked process, if any
	wakeSpawn                   // spawn a child that starts after d
)

type wakeOp struct {
	kind wakeOpKind
	d    Time
}

// wakeScript is process pid's program at seed: a few dozen operations over a
// clock of a handful of microseconds, so equal wake times are common.
func wakeScript(seed uint64, pid int) []wakeOp {
	rng := NewRNG(seed*1_000_003 + uint64(pid))
	ops := make([]wakeOp, 4+rng.Intn(24))
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 5:
			ops[i] = wakeOp{kind: wakeSleep, d: Time(rng.Intn(4)) * Microsecond}
		case r < 7:
			ops[i] = wakeOp{kind: wakePark}
		case r < 9:
			ops[i] = wakeOp{kind: wakeOne}
		default:
			ops[i] = wakeOp{kind: wakeSpawn, d: Time(rng.Intn(3)) * Microsecond}
		}
	}
	return ops
}

// wakeWorld is the bookkeeping both runs share: the scripts, who is parked,
// and the resume log. Its decisions depend only on its own state, so the
// engine and the model take the same ones as long as they resume processes
// in the same order.
type wakeWorld struct {
	seed    uint64
	scripts [][]wakeOp
	parked  []int // parked processes, longest-parked first
	living  int
	log     []string
}

const wakeMaxProcs = 48

// spawn registers a new process, unless the run already has enough.
func (w *wakeWorld) spawn() (int, bool) {
	if len(w.scripts) == wakeMaxProcs {
		return 0, false
	}
	pid := len(w.scripts)
	w.scripts = append(w.scripts, wakeScript(w.seed, pid))
	w.living++
	return pid, true
}

func (w *wakeWorld) resumed(pid int, at Time) {
	w.log = append(w.log, fmt.Sprintf("p%d@%d", pid, at))
}

// park records pid as parked, unless every other living process is parked
// too: then nobody could wake it, and the caller wakes one instead.
func (w *wakeWorld) park(pid int) bool {
	if len(w.parked)+1 >= w.living {
		return false
	}
	w.parked = append(w.parked, pid)
	return true
}

// unpark removes the longest-parked process, which the caller then wakes.
func (w *wakeWorld) unpark() (int, bool) {
	if len(w.parked) == 0 {
		return 0, false
	}
	pid := w.parked[0]
	w.parked = w.parked[1:]
	return pid, true
}

// finish retires a process. When only parked ones remain it returns them
// all, for the caller to wake.
func (w *wakeWorld) finish() []int {
	w.living--
	if w.living > 0 && len(w.parked) == w.living {
		all := w.parked
		w.parked = nil
		return all
	}
	return nil
}

const wakeRoots = 4

// runWakeEngine runs seed's scripts on an engine attached to pool (none
// when nil) and returns the resume log.
func runWakeEngine(t *testing.T, seed uint64, pool *Pool) []string {
	w := &wakeWorld{seed: seed}
	e := NewEngine()
	e.SetPool(pool)
	var procs []*Process
	var body func(pid int) func(p *Process)
	body = func(pid int) func(p *Process) {
		return func(p *Process) {
			w.resumed(pid, p.Now())
			for _, op := range w.scripts[pid] {
				switch op.kind {
				case wakeSleep:
					p.Sleep(op.d)
					w.resumed(pid, p.Now())
				case wakePark:
					if w.park(pid) {
						p.Park("wake-order", "")
						w.resumed(pid, p.Now())
					} else if q, ok := w.unpark(); ok {
						p.Wake(procs[q])
					}
				case wakeOne:
					if q, ok := w.unpark(); ok {
						p.Wake(procs[q])
					}
				case wakeSpawn:
					if c, ok := w.spawn(); ok {
						procs = append(procs, e.SpawnAt(fmt.Sprintf("p%d", c), op.d, body(c)))
					}
				}
			}
			for _, q := range w.finish() {
				p.Wake(procs[q])
			}
		}
	}
	for i := 0; i < wakeRoots; i++ {
		pid, _ := w.spawn()
		procs = append(procs, e.Spawn(fmt.Sprintf("p%d", pid), body(pid)))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return w.log
}

// runWakeModel runs seed's scripts on the reference model: a process runs
// from its program counter until it sleeps, parks or finishes, and the next
// to run is the pending resumption with the smallest (time, sequence).
func runWakeModel(seed uint64) []string {
	type pending struct {
		at  Time
		seq uint64
		pid int
	}
	w := &wakeWorld{seed: seed}
	var queue []pending
	var seq uint64
	var now Time
	schedule := func(pid int, at Time) {
		seq++
		queue = append(queue, pending{at: at, seq: seq, pid: pid})
	}
	var pc []int
	spawn := func(delay Time) {
		if pid, ok := w.spawn(); ok {
			pc = append(pc, 0)
			schedule(pid, now+delay)
		}
	}
	for i := 0; i < wakeRoots; i++ {
		spawn(0)
	}
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool {
			a, b := queue[i], queue[j]
			return a.at < b.at || (a.at == b.at && a.seq < b.seq)
		})
		next := queue[0]
		queue = queue[1:]
		now = next.at
		pid := next.pid
		w.resumed(pid, now)
	run:
		for {
			if pc[pid] == len(w.scripts[pid]) {
				for _, q := range w.finish() {
					schedule(q, now)
				}
				break
			}
			op := w.scripts[pid][pc[pid]]
			pc[pid]++
			switch op.kind {
			case wakeSleep:
				schedule(pid, now+op.d)
				break run
			case wakePark:
				if w.park(pid) {
					break run
				}
				if q, ok := w.unpark(); ok {
					schedule(q, now)
				}
			case wakeOne:
				if q, ok := w.unpark(); ok {
					schedule(q, now)
				}
			case wakeSpawn:
				spawn(op.d)
			}
		}
	}
	return w.log
}

// TestRandomWakeOrderMatchesModel checks the engine's resume order — Sleep's
// heap-free and replace-top paths, Park/Wake, Spawn and finishing processes
// mixed — against the reference model over many random seeds.
func TestRandomWakeOrderMatchesModel(t *testing.T) {
	resumes := 0
	for seed := uint64(1); seed <= 300; seed++ {
		got, want := runWakeEngine(t, seed, nil), runWakeModel(seed)
		resumes += len(want)
		n := min(len(got), len(want))
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d: resume %d is %s, the model's is %s (engine %v, model %v)",
					seed, i, got[i], want[i], got[max(0, i-4):min(len(got), i+4)], want[max(0, i-4):min(len(want), i+4)])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d resumes, the model has %d", seed, len(got), len(want))
		}
	}
	t.Logf("%d resumes matched", resumes)
}

// TestPoolReissuesAcrossEngines runs the wake-order scripts over a chain of
// engines sharing one pool: each reissues the coroutines and arrays the
// engines before it left, and must still resume exactly as a fresh engine
// does. Each seed runs twice; the second run finds every coroutine it needs
// in the pool, so it starts no goroutine. Close then stops them all.
func TestPoolReissuesAcrossEngines(t *testing.T) {
	base := runtime.NumGoroutine()
	var pool Pool
	for seed := uint64(1); seed <= 100; seed++ {
		want := runWakeEngine(t, seed, nil)
		for run := 0; run < 2; run++ {
			before := runtime.NumGoroutine()
			got := runWakeEngine(t, seed, &pool)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d run %d: pooled engine resumed %v, a fresh one %v", seed, run, got, want)
			}
			if after := runtime.NumGoroutine(); run == 1 && after > before {
				t.Fatalf("seed %d: the warm run raised the goroutine count %d -> %d", seed, before, after)
			}
		}
	}
	pool.Close()
	waitGoroutines(t, base)
}

// TestLoneSleeperSkipsTheHeap pins Sleep's heap-free path: a process whose
// wake is always the earliest never touches the event queue, so 10,000
// sleeps, zero-length ones included, leave the queue's backing array
// unallocated.
func TestLoneSleeperSkipsTheHeap(t *testing.T) {
	e := NewEngine()
	e.Spawn("solo", func(p *Process) {
		e.events.ev = nil // the spawn's own slot; only a sleep could allocate one now
		for k := 0; k < 10000; k++ {
			p.Sleep(Time(k%2) * Microsecond)
		}
		if c := cap(e.events.ev); c != 0 {
			t.Errorf("event slice capacity %d after 10,000 lone sleeps, want 0", c)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Now(), 5000*Microsecond; got != want {
		t.Fatalf("clock %v, want %v", got, want)
	}
}

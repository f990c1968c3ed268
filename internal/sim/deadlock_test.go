package sim

import "testing"

// TestDeadlockListingNamesEachPrimitive deadlocks one process on each wait
// primitive and pins the exact listing: every entry names the primitive's
// kind and name, and a sequencer waiter also its turn.
func TestDeadlockListingNamesEachPrimitive(t *testing.T) {
	e := NewEngine()
	disk := NewResource(e, "disk", 1)
	sync := NewBarrier(e, "sync", 3)
	seq := NewSequencer(e, "order")
	io := NewCompletion("io")

	// The holder keeps the disk and then waits at a barrier nobody else
	// reaches, so the disk's queued acquirer is stuck behind it.
	e.Spawn("holder", func(p *Process) {
		disk.Acquire(p)
		sync.Wait(p)
	})
	e.Spawn("acquirer", func(p *Process) {
		p.Sleep(Microsecond)
		disk.Acquire(p)
	})
	e.Spawn("turn", func(p *Process) { seq.WaitTurn(p, 3) })
	e.Spawn("awaiter", func(p *Process) { io.Await(p) })

	err := e.Run()
	if err == nil {
		t.Fatal("want a deadlock error, got nil")
	}
	const want = "sim: deadlock at 0.000001s: 4 processes blocked forever: " +
		"acquirer(id=2,resource:disk), awaiter(id=4,completion:io), " +
		"holder(id=1,barrier:sync), turn(id=3,sequencer:order[3])"
	if got := err.Error(); got != want {
		t.Fatalf("deadlock listing:\n got %s\nwant %s", got, want)
	}
}

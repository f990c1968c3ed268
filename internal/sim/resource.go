package sim

import (
	"errors"
	"fmt"
)

// ErrBroken is returned by AcquireWait when the resource has been broken by
// Break — the modeled device failed while the caller was queued (or before it
// arrived).
var ErrBroken = errors.New("sim: resource is broken")

// Resource is a FIFO server with fixed capacity: at most cap processes hold
// it at once; further acquirers queue in arrival order. It models contended
// physical devices and logical tokens — an I/O node's disk array, the PFS
// metadata server, or a shared file pointer.
//
// A resource can be interrupted: Break marks it broken and ejects every
// queued waiter (their AcquireWait returns ErrBroken), modeling a device
// failure under load; Repair restores normal service. Holders at Break time
// keep their unit — the request already in service completes.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  FIFO[*Process]
	broken   bool
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire blocks p until it holds one unit of the resource. Units are granted
// strictly in request order. Acquire must not be used on resources that can
// break (use AcquireWait there); acquiring a broken resource panics.
func (r *Resource) Acquire(p *Process) {
	if err := r.AcquireWait(p); err != nil {
		panic(fmt.Sprintf("sim: Acquire on broken resource %q", r.name))
	}
}

// AcquireWait blocks p until it holds one unit of the resource, like Acquire,
// but returns ErrBroken instead of granting a unit if the resource is broken
// on arrival or breaks while p is queued.
func (r *Resource) AcquireWait(p *Process) error {
	if r.broken {
		return ErrBroken
	}
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.inUse++
		return nil
	}
	r.waiters.Push(p)
	p.Park("resource", r.name)
	if p.granted {
		p.granted = false
		return nil
	}
	// Woken without a unit hand-off: ejected by Break.
	return ErrBroken
}

// Release returns one unit. If processes are queued, the unit passes directly
// to the head of the queue (preserving FIFO order and keeping inUse
// constant), flagged on the woken process; otherwise the unit becomes free.
// A process waits on at most one resource at a time, so one flag per process
// serves every resource.
func (r *Resource) Release(p *Process) {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if r.waiters.Len() > 0 {
		next := r.waiters.Pop()
		next.granted = true
		p.Wake(next) // unit transfers; inUse unchanged
		return
	}
	r.inUse--
}

// Break marks the resource broken and ejects all queued waiters, whose
// AcquireWait calls return ErrBroken. Current holders are unaffected (their
// in-flight service completes). Subsequent AcquireWait calls fail until
// Repair.
func (r *Resource) Break(p *Process) {
	if r.broken {
		return
	}
	r.broken = true
	// scheduleBatch copies the waiters, so the queue keeps its array.
	p.eng.scheduleBatch(r.waiters.All(), p.eng.now)
	r.waiters.Reset()
}

// Repair restores a broken resource to service.
func (r *Resource) Repair() { r.broken = false }

// Broken reports whether the resource is out of service.
func (r *Resource) Broken() bool { return r.broken }

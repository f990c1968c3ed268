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
// Resource also keeps simple utilization statistics so analyses can report
// device busy time and queueing delay.
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

	// statistics
	lastChange Time
	busyArea   float64 // integral of inUse over time, in unit·µs
	acquires   int64
	waitTotal  Time
	queuePeak  int
	breaks     int64
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

// Capacity returns the number of simultaneous holders allowed.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of current holders.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

func (r *Resource) account() {
	now := r.eng.now
	r.busyArea += float64(r.inUse) * float64(now-r.lastChange)
	r.lastChange = now
}

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
	r.acquires++
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.account()
		r.inUse++
		return nil
	}
	start := r.eng.now
	r.waiters.Push(p)
	if n := r.waiters.Len(); n > r.queuePeak {
		r.queuePeak = n
	}
	p.Park("resource", r.name)
	r.waitTotal += r.eng.now - start
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
	r.account()
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
	r.breaks++
	// scheduleBatch copies the waiters, so the queue keeps its array.
	p.eng.scheduleBatch(r.waiters.All(), p.eng.now)
	r.waiters.Reset()
}

// Repair restores a broken resource to service.
func (r *Resource) Repair() { r.broken = false }

// Broken reports whether the resource is out of service.
func (r *Resource) Broken() bool { return r.broken }

// Use acquires the resource, holds it for the service time, and releases it.
// It returns the total elapsed time including queueing delay.
func (r *Resource) Use(p *Process, service Time) Time {
	start := p.Now()
	r.Acquire(p)
	p.Sleep(service)
	r.Release(p)
	return p.Now() - start
}

// Stats summarizes resource usage since creation.
type ResourceStats struct {
	Name        string
	Acquires    int64   // total successful acquisitions
	Utilization float64 // mean fraction of capacity busy, up to `at`
	TotalWait   Time    // sum of queueing delays over all acquirers
	QueuePeak   int     // maximum observed queue length
	Breaks      int64   // times the resource was broken (fault injection)
}

// StatsAt returns usage statistics evaluated at simulated time at (usually
// engine.Now() after a run).
func (r *Resource) StatsAt(at Time) ResourceStats {
	area := r.busyArea + float64(r.inUse)*float64(at-r.lastChange)
	util := 0.0
	if at > 0 {
		util = area / (float64(at) * float64(r.capacity))
	}
	return ResourceStats{
		Name:        r.name,
		Acquires:    r.acquires,
		Utilization: util,
		TotalWait:   r.waitTotal,
		QueuePeak:   r.queuePeak,
		Breaks:      r.breaks,
	}
}

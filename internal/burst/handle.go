package burst

import (
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// handle is an intercepted descriptor: writes commit to the node-local log,
// reads and metadata pass through after the file's pending drain completes.
// Because writes bypass the inner handle its file pointer goes stale; the
// wrapper shadows the pointer in off and re-synchronizes the inner handle
// before any pass-through data access.
type handle struct {
	t    *Tier
	in   workload.Handle
	node int
	name string
	mode iotrace.AccessMode
	off  int64 // shadow pointer for the independent-pointer modes
}

// independent reports whether the handle carries its own file pointer
// (intercepted M_LOG handles take offsets from the tier's shared pointer).
func (h *handle) independent() bool { return h.mode != iotrace.ModeLog }

// sync repositions the inner handle at the shadow pointer so a delegated
// access lands where the intercepted stream left off.
func (h *handle) sync(p *sim.Process) error {
	if !h.independent() || h.in.Offset() == h.off {
		return nil
	}
	_, err := h.in.Seek(p, h.off, pfs.SeekStart)
	return err
}

// Write commits to the local log and returns at local-durability speed.
func (h *handle) Write(p *sim.Process, n int64) (int64, error) {
	if n < 0 {
		return 0, pfs.ErrBadRequest
	}
	var off int64
	if h.independent() {
		off = h.off
	} else {
		// M_LOG: the tier keeps the shared pointer; arrival order is
		// commit order.
		st := h.t.state(h.name)
		off = st.logOff
		st.logOff += n
	}
	done, err := h.t.commit(p, h.node, h.name, off, n, h.mode)
	if h.independent() {
		h.off += done
	}
	return done, err
}

// Read waits out the file's pending drain, then passes through.
func (h *handle) Read(p *sim.Process, n int64) (int64, error) {
	h.t.waitDrained(p, h.name)
	if err := h.sync(p); err != nil {
		return 0, err
	}
	done, err := h.in.Read(p, n)
	if h.independent() {
		h.off = h.in.Offset()
	}
	return done, err
}

// ReadAsync waits out the pending drain, then passes through.
func (h *handle) ReadAsync(p *sim.Process, n int64) (workload.AsyncRead, error) {
	h.t.waitDrained(p, h.name)
	if err := h.sync(p); err != nil {
		return nil, err
	}
	ar, err := h.in.ReadAsync(p, n)
	if h.independent() {
		h.off = h.in.Offset()
	}
	return ar, err
}

// Seek repositions the shadow pointer, delegating for the modeled seek cost.
func (h *handle) Seek(p *sim.Process, offset int64, whence int) (int64, error) {
	target := offset
	switch whence {
	case pfs.SeekCurrent:
		target += h.off
	case pfs.SeekEnd:
		// End of the logical image, not of the (possibly shorter) PFS file.
		if fi, ok := h.t.Stat(h.name); ok {
			target += fi.Size
		}
	}
	done, err := h.in.Seek(p, target, pfs.SeekStart)
	if err != nil {
		return done, err
	}
	h.off = done
	return done, nil
}

// Flush is the tier's fast path: committed records are already locally
// durable, so the synchronous PFS flush the application would have paid
// becomes a no-op. The drain daemon persists them in the background.
func (h *handle) Flush(p *sim.Process) error { return nil }

// Close passes through; draining continues after the close.
func (h *handle) Close(p *sim.Process) error { return h.in.Close(p) }

// Lsize passes through for the modeled query cost but reports the logical
// extent including undrained records.
func (h *handle) Lsize(p *sim.Process) (int64, error) {
	n, err := h.in.Lsize(p)
	if err != nil {
		return n, err
	}
	if st, ok := h.t.files[h.name]; ok && st.logical > n {
		n = st.logical
	}
	return n, nil
}

// SetIOMode drains pending records first (the mode switch may change sharing
// semantics), then passes through.
func (h *handle) SetIOMode(p *sim.Process, mode iotrace.AccessMode, recordLen int64) error {
	h.t.waitDrained(p, h.name)
	if err := h.in.SetIOMode(p, mode, recordLen); err != nil {
		return err
	}
	h.mode = mode
	return nil
}

// Offset returns the shadow pointer (the inner pointer is stale between
// synchronizations).
func (h *handle) Offset() int64 {
	if h.independent() {
		return h.off
	}
	return h.in.Offset()
}

// Interface-satisfaction check.
var _ workload.Handle = (*handle)(nil)

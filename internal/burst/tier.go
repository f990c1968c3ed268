package burst

import (
	"fmt"
	"strings"

	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Tier is one machine's burst-buffer layer: a workload.FS that passes
// metadata and reads through to the PFS but absorbs checkpoint-class and
// M_LOG write traffic into per-compute-node local logs, drained
// asynchronously by per-node daemons.
//
// Interception is by access mode (every M_LOG write) and by file name (every
// write on a handle whose file matches a registered prefix — the resilience
// driver registers the checkpoint file base). Everything else behaves exactly
// as on the raw PFS. Reads of a file with undrained records wait for its
// drain first, so readers always observe the logical image; mixing M_LOG
// reads and writes on one open file is not supported (no application in the
// suite does).
type Tier struct {
	eng   *sim.Engine
	phys  *pfs.FileSystem
	inner workload.FS
	cfg   Config

	phase    iotrace.Phase
	logs     []*nodeLog
	files    map[string]*fileState
	prefixes []string

	seq uint64
	st  Stats
}

// nodeLog is one compute node's local log.
type nodeLog struct {
	node  int
	cap   int64             // this node's log capacity
	used  int64             // committed, undrained bytes
	queue []*Record         // FIFO drain order
	live  bool              // drain daemon running
	space []*sim.Completion // commits blocked on a full log
}

// fileState tracks one target file's undrained records and logical extent.
type fileState struct {
	pendingBytes int64
	pendingRecs  int
	logical      int64             // highest committed logical end
	logOff       int64             // shared pointer for intercepted M_LOG handles
	waiters      []*sim.Completion // readers blocked on the pending drain
}

// New builds a burst tier over a machine's PFS for a compute partition of the
// given size. The tier implements workload.FS; applications run against it in
// place of the raw wrapper.
func New(eng *sim.Engine, phys *pfs.FileSystem, nodes int, cfg Config) (*Tier, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nodes < 1 {
		return nil, fmt.Errorf("burst: %d compute nodes", nodes)
	}
	t := &Tier{
		eng:   eng,
		phys:  phys,
		inner: workload.WrapPFS(phys),
		cfg:   cfg,
		files: make(map[string]*fileState),
		logs:  make([]*nodeLog, nodes),
	}
	for _, pre := range cfg.Prefixes {
		t.InterceptPrefix(pre)
	}
	return t, nil
}

// InterceptPrefix routes writes of files whose names start with prefix
// through the log regardless of access mode; the resilience driver registers
// the checkpoint file base here.
func (t *Tier) InterceptPrefix(prefix string) {
	if prefix == "" {
		return
	}
	t.prefixes = append(t.prefixes, prefix)
}

// log returns (creating on first use) a node's local log.
func (t *Tier) log(node int) *nodeLog {
	for node >= len(t.logs) {
		t.logs = append(t.logs, nil)
	}
	if t.logs[node] == nil {
		t.logs[node] = &nodeLog{
			node: node,
			cap:  t.nodeCapacity(node),
		}
	}
	return t.logs[node]
}

// nodeCapacity resolves a node's log capacity under the heterogeneous-fleet
// overrides.
func (t *Tier) nodeCapacity(node int) int64 {
	if node < len(t.cfg.PerNodeCapacity) && t.cfg.PerNodeCapacity[node] > 0 {
		return t.cfg.PerNodeCapacity[node]
	}
	return t.cfg.CapacityBytes
}

// state returns (creating on first use) a file's pending-drain state.
func (t *Tier) state(name string) *fileState {
	st, ok := t.files[name]
	if !ok {
		st = &fileState{}
		t.files[name] = st
	}
	return st
}

// intercepts reports whether writes through a handle on (name, mode) commit
// to the local log.
func (t *Tier) intercepts(name string, mode iotrace.AccessMode) bool {
	if mode == iotrace.ModeLog {
		return true
	}
	for _, pre := range t.prefixes {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

// wrap interposes the log on intercepted handles; everything else passes
// through untouched.
func (t *Tier) wrap(in workload.Handle, node int, name string, mode iotrace.AccessMode) workload.Handle {
	if !t.intercepts(name, mode) {
		return in
	}
	return &handle{t: t, in: in, node: node, name: name, mode: mode}
}

// Create implements workload.FS.
func (t *Tier) Create(p *sim.Process, node int, name string, mode iotrace.AccessMode) (workload.Handle, error) {
	h, err := t.inner.Create(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	return t.wrap(h, node, name, mode), nil
}

// Open implements workload.FS.
func (t *Tier) Open(p *sim.Process, node int, name string, mode iotrace.AccessMode) (workload.Handle, error) {
	if !t.intercepts(name, mode) {
		// A non-intercepted handle sees the raw PFS image; make sure the
		// log holds nothing newer first.
		t.waitDrained(p, name)
	}
	h, err := t.inner.Open(p, node, name, mode)
	if err != nil {
		return nil, err
	}
	return t.wrap(h, node, name, mode), nil
}

// OpenRecord implements workload.FS. M_RECORD traffic is never intercepted.
func (t *Tier) OpenRecord(p *sim.Process, node int, name string, recordLen int64) (workload.Handle, error) {
	t.waitDrained(p, name)
	return t.inner.OpenRecord(p, node, name, recordLen)
}

// Preload implements workload.FS.
func (t *Tier) Preload(name string, size int64) (pfs.FileInfo, error) {
	return t.inner.Preload(name, size)
}

// ReserveIDs implements workload.FS.
func (t *Tier) ReserveIDs(n int) { t.inner.ReserveIDs(n) }

// SetPhase implements workload.FS; the tier shadows the label so committed
// records carry their workload class.
func (t *Tier) SetPhase(p iotrace.Phase) {
	t.phase = p
	t.inner.SetPhase(p)
}

// Phase returns the current phase (the checkpoint coordinator's
// phase-setter handshake).
func (t *Tier) Phase() iotrace.Phase { return t.phase }

// Stat implements workload.FS, reporting the logical extent — committed but
// undrained bytes count.
func (t *Tier) Stat(name string) (pfs.FileInfo, bool) {
	fi, ok := t.inner.Stat(name)
	if !ok {
		return fi, ok
	}
	if st, have := t.files[name]; have && st.logical > fi.Size {
		fi.Size = st.logical
	}
	return fi, true
}

// commit absorbs one write into the node's local log (or bypasses oversized
// records straight to the PFS) and returns when the data is locally durable.
func (t *Tier) commit(p *sim.Process, node int, name string, off, n int64, mode iotrace.AccessMode) (int64, error) {
	start := p.Now()
	if n >= t.nodeCapacity(node) {
		// The log cannot hold the record even empty: write through, after
		// any pending records on the file so ordering is preserved.
		t.waitDrained(p, name)
		t.st.Bypassed++
		t.st.BypassedBytes += n
		return t.phys.Access(p, node, name, iotrace.OpWrite, off, n)
	}
	lg := t.log(node)
	for lg.used+n > lg.cap {
		// Backpressure: block until the drain daemon frees space.
		t.st.Backpressure++
		w := sim.NewCompletion("burst-space")
		lg.space = append(lg.space, w)
		s0 := p.Now()
		w.Await(p)
		t.st.BackpressureStall += p.Now() - s0
	}
	p.Sleep(commitOverhead + bwTime(float64(n), commitBWBytesPerS))
	t.seq++
	rec := Record{
		Seq: t.seq, Node: node, File: name, Offset: off, Bytes: n,
		Class: t.phase, commitAt: p.Now(),
	}.Seal()
	lg.queue = append(lg.queue, &rec)
	lg.used += n
	st := t.state(name)
	st.pendingRecs++
	st.pendingBytes += n
	if end := off + n; end > st.logical {
		st.logical = end
	}
	t.st.Committed++
	t.st.CommittedBytes += n
	t.st.CommitTime += p.Now() - start
	t.ensureDrainer(node)
	// The application saw a completed write; it belongs in the trace.
	t.phys.RecordClientOp(node, iotrace.OpWrite, name, off, n, start, mode)
	return n, nil
}

// waitDrained blocks until no committed record for the file remains in any
// node's log, so a subsequent read observes the full logical image.
func (t *Tier) waitDrained(p *sim.Process, name string) {
	st, ok := t.files[name]
	if !ok {
		return
	}
	for st.pendingRecs > 0 {
		t.st.ReadStalls++
		w := sim.NewCompletion("burst-pending")
		st.waiters = append(st.waiters, w)
		s0 := p.Now()
		w.Await(p)
		t.st.ReadStallTime += p.Now() - s0
	}
}

// UndrainedNode reports a node log's committed-but-undrained content — the
// data a node loss destroys.
func (t *Tier) UndrainedNode(node int) (bytes, records int64) {
	if node < 0 || node >= len(t.logs) || t.logs[node] == nil {
		return 0, 0
	}
	lg := t.logs[node]
	return lg.used, int64(len(lg.queue))
}

// UndrainedFiles returns the per-file undrained byte totals across all node
// logs; the resilience driver uses it to reject checkpoint generations whose
// newest records died in a volatile log.
func (t *Tier) UndrainedFiles() map[string]int64 {
	out := make(map[string]int64)
	for name, st := range t.files {
		if st.pendingBytes > 0 {
			out[name] = st.pendingBytes
		}
	}
	return out
}

// Stats returns a snapshot of the tier's counters, including the undrained
// residue at snapshot time.
func (t *Tier) Stats() Stats {
	st := t.st
	for _, lg := range t.logs {
		if lg == nil {
			continue
		}
		st.UndrainedBytes += lg.used
		st.UndrainedRecords += int64(len(lg.queue))
	}
	return st
}

// bwTime converts a byte count at a bandwidth into simulated time.
func bwTime(bytes, bw float64) sim.Time {
	if bw <= 0 || bytes <= 0 {
		return 0
	}
	return sim.Time(bytes / bw * float64(sim.Second))
}

// wake completes and clears a waiter list.
func wake(p *sim.Process, ws *[]*sim.Completion) {
	list := *ws
	*ws = nil
	for _, w := range list {
		w.Complete(p)
	}
}

// Interface-satisfaction check.
var _ workload.FS = (*Tier)(nil)

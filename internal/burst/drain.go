package burst

import (
	"fmt"

	"repro/internal/sim"
)

// ensureDrainer spawns a node's drain daemon when its log has work and no
// daemon is running. Daemons are spawned on demand and exit when the log
// empties, so an idle tier contributes no events and the engine's drain-time
// deadlock check stays meaningful.
func (t *Tier) ensureDrainer(node int) {
	lg := t.log(node)
	if lg.live || len(lg.queue) == 0 {
		return
	}
	lg.live = true
	t.eng.Spawn(fmt.Sprintf("burst-drain%d", node), func(p *sim.Process) {
		defer func() { lg.live = false }()
		t.runDrain(p, lg)
	})
}

// runDrain flushes the log FIFO until empty: per record a checksum
// re-verification, the compression stage, optional host-side pacing, then the
// PFS write with bounded retries. Every dequeue frees log space and wakes
// blocked committers and readers.
func (t *Tier) runDrain(p *sim.Process, lg *nodeLog) {
	p.Sleep(drainDelay)
	for len(lg.queue) > 0 {
		rec := lg.queue[0]
		start := p.Now()
		t.drainOne(p, rec)
		t.st.DrainTime += p.Now() - start
		t.finish(p, lg, rec)
	}
}

// drainOne lands one record on the PFS (or drops it, counted, when its
// checksum fails or the PFS refuses past the retry budget — dropping keeps
// the queue draining under a dead file system).
func (t *Tier) drainOne(p *sim.Process, rec *Record) {
	verify := bwTime(float64(rec.Bytes), verifyBWBytesPerS)
	t.st.VerifyTime += verify
	p.Sleep(verify)
	if !rec.Verify() {
		t.st.VerifyFails++
		return
	}
	wire := t.cfg.wireBytes(rec.Bytes)
	if t.cfg.ratio() > 1 {
		d := bwTime(float64(rec.Bytes), compressCPUBytesPerS)
		t.st.CompressTime += d
		p.Sleep(d)
	}
	if bw := t.cfg.DrainBWBytesPerS; bw > 0 {
		p.Sleep(bwTime(float64(wire), bw))
	}
	for attempt := 0; attempt < maxDrainRetries; attempt++ {
		if attempt > 0 {
			t.st.DrainRetries++
			p.Sleep(retryDelay)
		}
		if err := t.phys.DrainWrite(p, rec.Node, rec.File, rec.Offset, rec.Bytes, wire); err == nil {
			t.st.Drained++
			t.st.DrainedBytes += rec.Bytes
			t.st.WireBytes += wire
			t.st.LastDrainEnd = p.Now()
			return
		}
	}
	t.st.DrainFails++
}

// finish dequeues a serviced record, releases its log space, and wakes
// whoever the space or the file's drain was blocking.
func (t *Tier) finish(p *sim.Process, lg *nodeLog, rec *Record) {
	lg.queue = lg.queue[1:]
	lg.used -= rec.Bytes
	st := t.files[rec.File]
	st.pendingRecs--
	st.pendingBytes -= rec.Bytes
	if st.pendingRecs == 0 {
		wake(p, &st.waiters)
	}
	wake(p, &lg.space)
}

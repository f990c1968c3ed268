package analysis

import (
	"fmt"
	"strings"

	"repro/internal/integrity"
	"repro/internal/pfs"
)

// IntegrityReport is the end-to-end data-integrity section of a run report:
// the checksum stores' per-node counters plus their aggregate, the full
// corruption event log, the PFS client reliability layer's retry
// counters, and (for resilient runs) the checkpoint restart-verification
// outcome. Together they answer the robustness questions the healthy-path
// tables cannot: what corruption landed, what detected it, what repaired it,
// and what the defenses cost.
type IntegrityReport struct {
	PerNode []integrity.Stats
	Total   integrity.Stats
	Events  []integrity.Event

	// Reliability carries the client-side deadline/retry counters.
	Reliability pfs.ReliabilityStats

	// CkptVerifyRejects and CkptFallbacks mirror the checkpoint
	// coordinator's restart verification (zero outside resilient runs).
	CkptVerifyRejects int
	CkptFallbacks     int
}

// BuildIntegrityReport assembles the report from the PFS accessors. Returns
// nil when both the integrity layer and the client reliability layer were
// inactive (no stores, no requests — nothing to say).
func BuildIntegrityReport(per []integrity.Stats, events []integrity.Event, rel pfs.ReliabilityStats) *IntegrityReport {
	if len(per) == 0 && rel == (pfs.ReliabilityStats{}) {
		return nil
	}
	return &IntegrityReport{
		PerNode:     per,
		Total:       integrity.Aggregate(per),
		Events:      events,
		Reliability: rel,
	}
}

// ClassCount is one corruption class's lifecycle tally, derived from the
// event log.
type ClassCount struct {
	Class        integrity.Class
	Injected     int
	Detected     int
	Repaired     int // parity-repaired
	Rewritten    int // healed by a later full rewrite
	Unrepairable int // detected but never resolved
	Latent       int // never detected
}

// ByClass tallies the event log per corruption class, in class order.
func (r *IntegrityReport) ByClass() []ClassCount {
	idx := map[integrity.Class]int{}
	var out []ClassCount
	for _, ev := range r.Events {
		i, ok := idx[ev.Class]
		if !ok {
			i = len(out)
			idx[ev.Class] = i
			out = append(out, ClassCount{Class: ev.Class})
		}
		c := &out[i]
		c.Injected++
		if ev.Detected {
			c.Detected++
		}
		switch {
		case ev.Resolution == integrity.ResRepairedParity:
			c.Repaired++
		case ev.Resolution == integrity.ResRewritten:
			c.Rewritten++
		case ev.Detected:
			c.Unrepairable++
		default:
			c.Latent++
		}
	}
	return out
}

// RenderIntegrityReport formats the report as a text section in the style of
// the other run-report sections. Empty-layer reports render to "".
func RenderIntegrityReport(r *IntegrityReport) string {
	if r == nil {
		return ""
	}
	t := r.Total
	var b strings.Builder
	fmt.Fprintf(&b, "Integrity report:\n")
	fmt.Fprintf(&b, "  checksums       %d blocks tracked, %d writes checksummed\n",
		t.TrackedBlocks, t.ChecksummedWrites)
	fmt.Fprintf(&b, "  verified        %d blocks (%d B)\n", t.VerifiedBlocks, t.VerifiedBytes)
	fmt.Fprintf(&b, "  injected        %d corruptions (%d carried over restarts)\n",
		t.Injected, t.Carried)
	for _, c := range r.ByClass() {
		fmt.Fprintf(&b, "    %-17s %d injected, %d detected, %d parity-repaired, %d rewritten, %d unrepairable, %d latent\n",
			c.Class, c.Injected, c.Detected, c.Repaired, c.Rewritten, c.Unrepairable, c.Latent)
	}
	fmt.Fprintf(&b, "  detected        %d  (read %d, scrub %d, restart %d, audit %d)\n",
		t.Detected(), t.DetectedRead, t.DetectedScrub, t.DetectedRestart, t.DetectedAudit)
	fmt.Fprintf(&b, "  repaired        %d by parity (%d in end-of-run audit), %d healed by rewrite\n",
		t.RepairedParity, t.AuditRepairs, t.HealedByRewrite)
	fmt.Fprintf(&b, "  outstanding     %d corrupt blocks (%d detected-unrepairable), %d corrupt reads surfaced\n",
		t.OutstandingCorrupt, t.UnrepairableOpen, t.CorruptReads)
	if t.ScrubbedBlocks > 0 || t.ScrubPasses > 0 {
		fmt.Fprintf(&b, "  scrub           %d blocks checked, %d full passes, %d repairs, %s scrubbing\n",
			t.ScrubbedBlocks, t.ScrubPasses, t.ScrubRepairs, fmtT(t.ScrubTime))
	}
	rel := r.Reliability
	if rel.Requests > 0 {
		fmt.Fprintf(&b, "  reliability     %d requests, %d retries (%s backing off), %d deadline-exceeded\n",
			rel.Requests, rel.Retries, fmtT(rel.RetryBackoffTime), rel.DeadlineExceeded)
		fmt.Fprintf(&b, "  corrupt path    %d retried, %d rerouted to replica, %d repair writes, %d failed\n",
			rel.CorruptRetries, rel.CorruptReroutes, rel.RepairWrites, rel.CorruptFailed)
	}
	if r.CkptVerifyRejects > 0 || r.CkptFallbacks > 0 {
		fmt.Fprintf(&b, "  ckpt verify     %d generations rejected, %d fallbacks to older checkpoint\n",
			r.CkptVerifyRejects, r.CkptFallbacks)
	}
	return b.String()
}

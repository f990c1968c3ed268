package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/iotrace"
	"repro/internal/sim"
)

// Exposure is the wall-clock time the machine spent under each fault class —
// the union of the incident windows, so overlapping incidents of one kind are
// not double-counted.
type Exposure struct {
	Degraded sim.Time // >= 1 drive out somewhere (RAID-3 degraded or rebuilding)
	Outage   sim.Time // >= 1 I/O node out of service
	Storm    sim.Time // >= 1 latency storm active
}

// Exposures computes per-kind exposure from an incident timeline.
func Exposures(incidents []fault.Incident) Exposure {
	var e Exposure
	e.Degraded = unionTime(incidents, fault.DiskFailure)
	e.Outage = unionTime(incidents, fault.IONodeOutage)
	e.Storm = unionTime(incidents, fault.LatencyStorm)
	return e
}

func unionTime(incidents []fault.Incident, kind fault.Kind) sim.Time {
	type iv struct{ s, e sim.Time }
	var ivs []iv
	for _, inc := range incidents {
		if inc.Kind != kind || inc.End <= inc.Start {
			continue
		}
		ivs = append(ivs, iv{inc.Start, inc.End})
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	total := sim.Time(0)
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.s > cur.e {
			total += cur.e - cur.s
			cur = v
			continue
		}
		if v.e > cur.e {
			cur.e = v.e
		}
	}
	total += cur.e - cur.s
	return total
}

// FaultImpact quantifies one incident's latency impact: the traced operations
// overlapping its window against the run's fault-free baseline.
type FaultImpact struct {
	Incident     fault.Incident
	Ops          int      // operations overlapping the window
	MeanLatency  sim.Time // their mean duration
	BaselineMean sim.Time // mean duration of ops outside every incident window
	Slowdown     float64  // MeanLatency / BaselineMean (0 when no baseline)
}

// FaultImpacts computes per-incident latency impact. Events and incidents
// must share a clock (one simulation attempt).
func FaultImpacts(events []iotrace.Event, incidents []fault.Incident) []FaultImpact {
	overlaps := func(e iotrace.Event, inc fault.Incident) bool {
		return e.Start < inc.End && e.End > inc.Start
	}
	// Baseline: operations clear of every incident.
	var baseSum sim.Time
	baseN := 0
	for _, e := range events {
		clear := true
		for _, inc := range incidents {
			if overlaps(e, inc) {
				clear = false
				break
			}
		}
		if clear {
			baseSum += e.Duration()
			baseN++
		}
	}
	var baseMean sim.Time
	if baseN > 0 {
		baseMean = baseSum / sim.Time(baseN)
	}

	out := make([]FaultImpact, 0, len(incidents))
	for _, inc := range incidents {
		var sum sim.Time
		n := 0
		for _, e := range events {
			if overlaps(e, inc) {
				sum += e.Duration()
				n++
			}
		}
		fi := FaultImpact{Incident: inc, Ops: n, BaselineMean: baseMean}
		if n > 0 {
			fi.MeanLatency = sum / sim.Time(n)
		}
		if baseMean > 0 && n > 0 {
			fi.Slowdown = float64(fi.MeanLatency) / float64(baseMean)
		}
		out = append(out, fi)
	}
	return out
}

// ResilienceReport is the chaos run's summary: attempt history, fault
// exposure, failover activity, and the checkpoint subsystem's costs against
// the work it saved.
type ResilienceReport struct {
	Wall     sim.Time // completion including restarts
	Attempts int
	Failures int
	LostWork sim.Time

	Checkpoints  int
	CkptOverhead sim.Time // node-time inside checkpoint rounds
	Restores     int
	RestoreTime  sim.Time

	Exposure Exposure
	Impacts  []FaultImpact

	// PFS failover counters.
	Timeouts, Retries, Reroutes, MirrorWrites, FailedOps int64
	BackoffTime                                          sim.Time

	// ReplicationFactor is the effective copies per chunk (0 or 1 = no
	// replication); Repair the repair control plane's availability summary.
	ReplicationFactor int
	Repair            RepairSummary
}

// RepairSummary is the availability view of the replication repair control
// plane: what the outage windows cost in redundancy and what it took to
// restore it.
type RepairSummary struct {
	Enabled      bool
	Outages      int64 // I/O-node outage windows observed
	SloppyWrites int64 // writes redirected to a replica while the primary was down
	MirrorMisses int64 // replica copies skipped because their target was down

	LedgerPuts int64 // under-replication entries enqueued
	LedgerPeak int64 // deepest the redirect ledger got
	Backlog    int64 // entries still unresolved at the end of the run

	ChunksRepaired int64 // copies restored by the repair daemon
	BytesRepaired  int64 // bytes re-replicated
	Abandoned      int64 // entries given up on (redundancy permanently lost)
	ThrottleTime   sim.Time

	TimeToFullRedundancy  sim.Time // last outage end -> ledger drained
	WindowOfVulnerability sim.Time // first outage -> redundancy restored
}

// RenderResilience formats the report as a text section.
func RenderResilience(r ResilienceReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience report:\n")
	fmt.Fprintf(&b, "  completion      %12s  (%d attempts, %d failures)\n",
		fmtT(r.Wall), r.Attempts, r.Failures)
	fmt.Fprintf(&b, "  lost work       %12s\n", fmtT(r.LostWork))
	fmt.Fprintf(&b, "  checkpoints     %12d  overhead %s\n", r.Checkpoints, fmtT(r.CkptOverhead))
	fmt.Fprintf(&b, "  restores        %12d  restore time %s\n", r.Restores, fmtT(r.RestoreTime))
	fmt.Fprintf(&b, "  degraded arrays %12s  outages %s  storms %s\n",
		fmtT(r.Exposure.Degraded), fmtT(r.Exposure.Outage), fmtT(r.Exposure.Storm))
	fmt.Fprintf(&b, "  failover        %d timeouts, %d retries, %d reroutes, %d mirror writes, %d failed ops, %s backing off\n",
		r.Timeouts, r.Retries, r.Reroutes, r.MirrorWrites, r.FailedOps, fmtT(r.BackoffTime))
	if r.ReplicationFactor > 1 {
		fmt.Fprintf(&b, "  replication     RF=%d\n", r.ReplicationFactor)
	}
	if r.Repair.Enabled {
		s := r.Repair
		fmt.Fprintf(&b, "  durability      %d outages, %d sloppy writes, %d mirror misses\n",
			s.Outages, s.SloppyWrites, s.MirrorMisses)
		fmt.Fprintf(&b, "  repair          %d/%d chunks restored (%d bytes), %d abandoned, ledger peak %d, backlog %d, %s throttled\n",
			s.ChunksRepaired, s.LedgerPuts, s.BytesRepaired, s.Abandoned, s.LedgerPeak, s.Backlog, fmtT(s.ThrottleTime))
		fmt.Fprintf(&b, "  availability    time-to-full-redundancy %s, window-of-vulnerability %s\n",
			fmtT(s.TimeToFullRedundancy), fmtT(s.WindowOfVulnerability))
	}
	if len(r.Impacts) > 0 {
		fmt.Fprintf(&b, "  per-fault latency impact:\n")
		fmt.Fprintf(&b, "  %12s %6s %-14s %6s %12s %12s %9s\n",
			"start", "node", "kind", "ops", "mean", "baseline", "slowdown")
		for _, fi := range r.Impacts {
			slow := "-"
			if fi.Slowdown > 0 {
				slow = fmt.Sprintf("%8.2fx", fi.Slowdown)
			}
			fmt.Fprintf(&b, "  %12s %6d %-14s %6d %12s %12s %9s\n",
				fmtT(fi.Incident.Start), fi.Incident.Node, fi.Incident.Kind,
				fi.Ops, fmtT(fi.MeanLatency), fmtT(fi.BaselineMean), slow)
		}
	}
	return b.String()
}

// TradeoffPoint is one checkpoint-interval setting's outcome in the
// overhead-versus-lost-work tradeoff.
type TradeoffPoint struct {
	Interval    int // work units between checkpoints (0 = none)
	Checkpoints int
	Overhead    sim.Time
	LostWork    sim.Time
	Wall        sim.Time
}

// RenderTradeoff formats a tradeoff sweep as a table: frequent checkpoints
// buy small lost-work at high overhead, rare ones the reverse — the knee is
// the operating point.
func RenderTradeoff(points []TradeoffPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint interval tradeoff:\n")
	fmt.Fprintf(&b, "  %8s %6s %12s %12s %12s\n",
		"interval", "ckpts", "overhead", "lost work", "completion")
	for _, p := range points {
		iv := "none"
		if p.Interval > 0 {
			iv = fmt.Sprintf("%d", p.Interval)
		}
		fmt.Fprintf(&b, "  %8s %6d %12s %12s %12s\n",
			iv, p.Checkpoints, fmtT(p.Overhead), fmtT(p.LostWork), fmtT(p.Wall))
	}
	return b.String()
}

func fmtT(t sim.Time) string { return fmt.Sprintf("%.3fs", float64(t)/float64(sim.Second)) }

package scenario

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/iotrace"
)

// Outcome classifies how a run ended.
type Outcome string

// The three outcomes assertions can expect.
const (
	// OutcomeOK: the run completed and nothing was lost — failed attempts,
	// lost work, undrained burst bytes, unrepaired corruption and failed
	// operations are all zero. Faults the stack absorbed transparently
	// (failover reroutes, retries, parity repairs) do not demote a run.
	OutcomeOK Outcome = "ok"

	// OutcomeDegraded: the run completed, but paid — an attempt died, work
	// or burst-log bytes were lost, corruption went unrepaired, or requests
	// failed outright.
	OutcomeDegraded Outcome = "degraded"

	// OutcomeFailed: the run did not complete within its attempt budget.
	OutcomeFailed Outcome = "failed"
)

// Measurements are the quantities assertions bound, extracted from a
// resilient run's report.
type Measurements struct {
	Outcome              Outcome
	MakespanS            float64 // absolute completion including restarts
	P95ReadMs            float64 // p95 application-visible read latency (final attempt)
	CacheHitRatio        float64 // fleet-wide demand hit ratio (cache runs only)
	HasCache             bool
	LostBytes            int64 // burst-log bytes that died undrained
	FailedAttempts       int
	UnrepairedCorruption int
	FailedOps            int64 // chunks abandoned by failover/reliability
	PhysRequests         int64
	CompletionErr        string // the driver's error on a failed run

	// Replication/repair measurements (zero without the repair plane).
	HasReplication     bool
	Redundancy         int     // copies per chunk still intact at the end
	RepairTimeS        float64 // time-to-full-redundancy
	UnrestoredReplicas int64   // copies the repair daemon never restored
}

// Measure extracts the assertion inputs from a run. rr may carry a final
// report or not (max-attempts exhaustion); runErr is the driver's error.
func Measure(rr *core.ResilientReport, runErr error) Measurements {
	var m Measurements
	if runErr != nil {
		m.CompletionErr = runErr.Error()
	}
	if rr == nil {
		m.Outcome = OutcomeFailed
		return m
	}
	m.MakespanS = rr.Wall.Seconds()
	m.LostBytes = rr.BurstLostBytes
	for _, a := range rr.Attempts {
		if a.Failed {
			m.FailedAttempts++
		}
	}
	if rr.Final != nil {
		m.P95ReadMs = p95ReadMs(rr.Final.Events)
		if rr.Final.Cache != nil {
			m.HasCache = true
			m.CacheHitRatio = rr.Final.Cache.Total.HitRatio()
		}
		m.FailedOps = rr.Final.Failover.Failed
		if rr.Final.Integrity != nil {
			m.FailedOps += rr.Final.Integrity.Reliability.CorruptFailed +
				rr.Final.Integrity.Reliability.DeadlineExceeded
		}
		m.PhysRequests = rr.Final.PhysRequests
		m.UnrepairedCorruption = unrepaired(rr.Final)
		m.HasReplication = rr.Final.ReplicationFactor > 1
		m.Redundancy = rr.Final.ReplicationFactor
		if rr.Final.RepairEnabled() {
			st := rr.Final.Repair
			m.RepairTimeS = st.TimeToFullRedundancy().Seconds()
			m.UnrestoredReplicas = st.Abandoned + (st.LedgerPuts - st.LedgerDrains)
			if m.UnrestoredReplicas > 0 && m.Redundancy > 1 {
				// At least one chunk ends the run a copy short.
				m.Redundancy--
			}
		}
	}

	switch {
	case rr.Final == nil || runErr != nil:
		m.Outcome = OutcomeFailed
	case m.FailedAttempts > 0 || rr.LostWork > 0 || m.LostBytes > 0 ||
		m.UnrepairedCorruption > 0 || m.FailedOps > 0 || m.UnrestoredReplicas > 0:
		m.Outcome = OutcomeDegraded
	default:
		m.Outcome = OutcomeOK
	}
	return m
}

// unrepaired counts corruption that was never resolved: detected-but-stuck
// plus latent (never even detected).
func unrepaired(r *core.Report) int {
	if r.Integrity == nil {
		return 0
	}
	n := 0
	for _, c := range r.Integrity.ByClass() {
		n += c.Unrepairable + c.Latent
	}
	return n
}

// p95ReadMs computes the 95th-percentile duration of the trace's read-class
// operations, in milliseconds.
func p95ReadMs(events []iotrace.Event) float64 {
	isRead := func(e *iotrace.Event) bool { return e.Op == iotrace.OpRead || e.Op == iotrace.OpAsyncRead }
	n := 0
	for i := range events {
		if isRead(&events[i]) {
			n++
		}
	}
	if n == 0 {
		return 0
	}
	durs := make([]float64, 0, n)
	for i := range events {
		if isRead(&events[i]) {
			durs = append(durs, events[i].Duration().Seconds()*1e3)
		}
	}
	slices.Sort(durs)
	idx := int(math.Ceil(0.95*float64(len(durs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return durs[idx]
}

// Check is one assertion's evaluation.
type Check struct {
	Name   string // the assertion key, e.g. "max_makespan_s"
	Bound  string // the configured bound, rendered
	Actual string // the measured value, rendered
	Pass   bool
}

// Evaluate checks every configured assertion against the measurements. A nil
// assertions section evaluates to an empty, passing list.
func (a *Assertions) Evaluate(m Measurements) []Check {
	if a == nil {
		return nil
	}
	var out []Check
	add := func(name, bound, actual string, pass bool) {
		out = append(out, Check{Name: name, Bound: bound, Actual: actual, Pass: pass})
	}
	if a.Expected != "" {
		add("expected", a.Expected, string(m.Outcome), Outcome(a.Expected) == m.Outcome)
	}
	if a.MaxMakespanS > 0 {
		add("max_makespan_s", fmt.Sprintf("%g", a.MaxMakespanS),
			fmt.Sprintf("%.3f", m.MakespanS), m.MakespanS <= a.MaxMakespanS)
	}
	if a.MinMakespanS > 0 {
		add("min_makespan_s", fmt.Sprintf("%g", a.MinMakespanS),
			fmt.Sprintf("%.3f", m.MakespanS), m.MakespanS >= a.MinMakespanS)
	}
	if a.MaxP95ReadMs > 0 {
		add("max_p95_read_ms", fmt.Sprintf("%g", a.MaxP95ReadMs),
			fmt.Sprintf("%.3f", m.P95ReadMs), m.P95ReadMs <= a.MaxP95ReadMs)
	}
	if a.MinCacheHitRatio > 0 {
		add("min_cache_hit_ratio", fmt.Sprintf("%g", a.MinCacheHitRatio),
			fmt.Sprintf("%.3f", m.CacheHitRatio),
			m.HasCache && m.CacheHitRatio >= a.MinCacheHitRatio)
	}
	if a.MaxLostBytes != nil {
		add("max_lost_bytes", fmt.Sprintf("%d", *a.MaxLostBytes),
			fmt.Sprintf("%d", m.LostBytes), m.LostBytes <= *a.MaxLostBytes)
	}
	if a.MaxFailedAttempts != nil {
		add("max_failed_attempts", fmt.Sprintf("%d", *a.MaxFailedAttempts),
			fmt.Sprintf("%d", m.FailedAttempts), m.FailedAttempts <= *a.MaxFailedAttempts)
	}
	if a.MaxPhysRequests > 0 {
		add("max_phys_requests", fmt.Sprintf("%d", a.MaxPhysRequests),
			fmt.Sprintf("%d", m.PhysRequests), m.PhysRequests <= a.MaxPhysRequests)
	}
	if a.MinRedundancy != nil {
		add("min_redundancy", fmt.Sprintf("%d", *a.MinRedundancy),
			fmt.Sprintf("%d", m.Redundancy), m.Redundancy >= *a.MinRedundancy)
	}
	if a.MaxRepairTimeS > 0 {
		add("max_repair_time_s", fmt.Sprintf("%g", a.MaxRepairTimeS),
			fmt.Sprintf("%.3f", m.RepairTimeS),
			m.RepairTimeS <= a.MaxRepairTimeS && m.UnrestoredReplicas == 0)
	}
	return out
}

// Passed reports whether every check holds.
func Passed(checks []Check) bool {
	for _, c := range checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

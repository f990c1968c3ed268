package analysis

import (
	"fmt"
	"strings"

	"repro/internal/burst"
	"repro/internal/iotrace"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// BurstReport summarizes a run's burst-tier activity: how much of the write
// burst the local logs absorbed, how well the background drain overlapped the
// application's compute phases, what compression saved, and what the tier
// still cost the application in stalls.
type BurstReport struct {
	Stats burst.Stats

	AppEnd       sim.Time // last application-visible operation's completion
	DrainBusy    sim.Time // summed drain-write service time on the PFS
	DrainOverlap sim.Time // portion of DrainBusy hidden under the application
	DrainTail    sim.Time // drain activity past the application's finish
	LastDrainEnd sim.Time // completion of the final drain write
}

// OverlapRatio returns the fraction of PFS drain time hidden under the
// application's own execution (1 = fully overlapped, the tier's ideal).
func (r *BurstReport) OverlapRatio() float64 {
	if r.DrainBusy == 0 {
		return 0
	}
	return float64(r.DrainOverlap) / float64(r.DrainBusy)
}

// StallTime returns the application-visible time the tier charged: commits
// (including backpressure) plus reads that waited for a drain.
func (r *BurstReport) StallTime() sim.Time {
	return r.Stats.CommitTime + r.Stats.ReadStallTime
}

// CompressRatio returns the achieved logical/wire ratio of the drained bytes.
func (r *BurstReport) CompressRatio() float64 {
	if r.Stats.WireBytes == 0 {
		return 1
	}
	return float64(r.Stats.DrainedBytes) / float64(r.Stats.WireBytes)
}

// AppEnd returns the completion instant of the latest traced operation: the
// application's effective finish, excluding injector processes (a background
// RAID rebuild, say) and burst-tier drain writes that keep the simulated
// clock running after the application is done.
func AppEnd(events []iotrace.Event) sim.Time {
	var end sim.Time
	for _, e := range events {
		if e.Phase != pfs.PhaseBurstDrain && e.End > end {
			end = e.End
		}
	}
	return end
}

// BuildBurstReport derives the burst-tier report from the tier's counters and
// the run's trace (drain writes carry the pfs.PhaseBurstDrain label, so their
// overlap with the application timeline is read straight off the events).
func BuildBurstReport(st burst.Stats, events []iotrace.Event) *BurstReport {
	r := &BurstReport{Stats: st, LastDrainEnd: st.LastDrainEnd, AppEnd: AppEnd(events)}
	for _, e := range events {
		if e.Phase != pfs.PhaseBurstDrain {
			continue
		}
		d := e.End - e.Start
		r.DrainBusy += d
		if e.Start >= r.AppEnd {
			continue
		}
		ov := d
		if e.End > r.AppEnd {
			ov = r.AppEnd - e.Start
		}
		r.DrainOverlap += ov
	}
	if r.LastDrainEnd > r.AppEnd {
		r.DrainTail = r.LastDrainEnd - r.AppEnd
	}
	return r
}

// RenderBurstReport formats the burst tier's section of a run report.
func RenderBurstReport(r *BurstReport) string {
	if r == nil {
		return ""
	}
	st := r.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "Burst tier:\n")
	fmt.Fprintf(&b, "  absorbed        %d records, %s  (%.1f%% of tier writes; %d bypassed, %s)\n",
		st.Committed, HumanBytes(st.CommittedBytes), 100*st.AbsorbRatio(),
		st.Bypassed, HumanBytes(st.BypassedBytes))
	fmt.Fprintf(&b, "  commit stall    %s  (%d backpressure waits, %s blocked)\n",
		fmtT(st.CommitTime), st.Backpressure, fmtT(st.BackpressureStall))
	fmt.Fprintf(&b, "  drained         %d records, %s logical -> %s wire  (%.2fx compression, %s saved)\n",
		st.Drained, HumanBytes(st.DrainedBytes), HumanBytes(st.WireBytes),
		r.CompressRatio(), HumanBytes(st.CompressSavedBytes()))
	fmt.Fprintf(&b, "  drain overlap   %s of %s hidden under the application (%.1f%%), %s tail\n",
		fmtT(r.DrainOverlap), fmtT(r.DrainBusy), 100*r.OverlapRatio(), fmtT(r.DrainTail))
	fmt.Fprintf(&b, "  read stalls     %d waits, %s\n", st.ReadStalls, fmtT(st.ReadStallTime))
	if st.UndrainedRecords > 0 {
		fmt.Fprintf(&b, "  undrained       %d records, %s still in node logs\n",
			st.UndrainedRecords, HumanBytes(st.UndrainedBytes))
	}
	if st.DrainRetries+st.DrainFails+st.VerifyFails > 0 {
		fmt.Fprintf(&b, "  drain errors    %d retries, %d dropped, %d checksum rejects\n",
			st.DrainRetries, st.DrainFails, st.VerifyFails)
	}
	return b.String()
}

// BurstComparison is one application's burst-on-versus-off outcome at equal
// configuration: end-to-end makespan and checkpoint stall time under each
// regime, with the tier's own counters alongside.
type BurstComparison struct {
	Name string

	DirectWall  sim.Time // makespan, burst off
	BurstWall   sim.Time // makespan (application finish), burst on
	DirectStall sim.Time // checkpoint overhead, burst off
	BurstStall  sim.Time // checkpoint overhead, burst on

	// Report is the burst run's tier report.
	Report *BurstReport
}

// Speedup returns the makespan ratio direct/burst.
func (c BurstComparison) Speedup() float64 {
	if c.BurstWall == 0 {
		return 0
	}
	return float64(c.DirectWall) / float64(c.BurstWall)
}

// StallReduction returns the checkpoint-stall collapse factor direct/burst.
func (c BurstComparison) StallReduction() float64 {
	if c.BurstStall == 0 {
		return 0
	}
	return float64(c.DirectStall) / float64(c.BurstStall)
}

// RenderBurstSweep formats a burst-on-versus-off comparison table.
func RenderBurstSweep(title string, rows []BurstComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-10s %12s %12s %8s %12s %12s %10s %9s %10s\n",
		"app", "direct wall", "burst wall", "speedup",
		"direct stall", "burst stall", "stall red", "absorb", "saved")
	for _, r := range rows {
		absorb, saved := 0.0, int64(0)
		if r.Report != nil {
			absorb = r.Report.Stats.AbsorbRatio()
			saved = r.Report.Stats.CompressSavedBytes()
		}
		red := "-"
		if r.DirectStall > 0 && r.BurstStall > 0 {
			red = fmt.Sprintf("%.1fx", r.StallReduction())
		}
		fmt.Fprintf(&b, "  %-10s %12s %12s %7.2fx %12s %12s %10s %8.1f%% %10s\n",
			r.Name, fmtT(r.DirectWall), fmtT(r.BurstWall), r.Speedup(),
			fmtT(r.DirectStall), fmtT(r.BurstStall), red,
			100*absorb, HumanBytes(saved))
	}
	return b.String()
}

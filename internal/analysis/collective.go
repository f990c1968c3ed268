package analysis

import (
	"fmt"
	"strings"

	"repro/internal/collective"
	"repro/internal/ionode"
)

// RenderCollectiveReport formats the two-phase aggregation counters as a text
// section: round outcomes, logical-to-physical request collapse, the shuffle
// volume the aggregation pattern moved over the mesh, and the before/after
// request-size histograms that make the collapse visible.
func RenderCollectiveReport(st *collective.Stats) string {
	if st == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Collective I/O:\n")
	fmt.Fprintf(&b, "  rounds          %d total, %d full, %d flushed by straggler window\n",
		st.Rounds, st.FullRounds, st.TimeoutRounds)
	fmt.Fprintf(&b, "  requests        %d logical -> %d physical  (%.1fx reduction, %d merged extents)\n",
		st.RequestsIn, st.RequestsOut, st.Reduction(), st.MergedExtents)
	fmt.Fprintf(&b, "  bytes           %s in, %s out\n",
		HumanBytes(st.BytesIn), HumanBytes(st.BytesOut))
	fmt.Fprintf(&b, "  shuffle         %d messages, %s over the mesh\n",
		st.ShuffleMsgs, HumanBytes(st.ShuffleBytes))
	fmt.Fprintf(&b, "  request sizes   %-12s %12s %12s\n", "bucket", "logical", "physical")
	for i := 0; i < collective.NumBuckets; i++ {
		if st.In.Buckets[i] == 0 && st.Out.Buckets[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "                  %-12s %12d %12d\n",
			collective.BucketLabel(i), st.In.Buckets[i], st.Out.Buckets[i])
	}
	return b.String()
}

// RenderSchedReport formats the per-I/O-node disk-scheduler counters.
func RenderSchedReport(rows []ionode.SchedStats) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Disk scheduling (%s):\n", rows[0].Policy)
	fmt.Fprintf(&b, "  %6s %10s %10s %8s %12s %10s\n",
		"node", "grants", "reorders", "wraps", "anticipated", "queue peak")
	for i, s := range rows {
		fmt.Fprintf(&b, "  %6d %10d %10d %8d %12d %10d\n",
			i, s.Grants, s.Reorders, s.Wraps, s.Anticipated, s.QueuePeak)
	}
	return b.String()
}

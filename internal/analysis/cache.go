package analysis

import (
	"fmt"
	"strings"

	"repro/internal/cache"
)

// CacheReport is the cache-effectiveness section of a run report: per-node
// counters plus their aggregate. The derived ratios (hit ratio, prefetch
// accuracy, write-behind coalescing) answer the §8 what-if directly — the
// paper's PFS had no I/O-node cache, so every access pattern paid the full
// array path.
type CacheReport struct {
	PerNode []cache.Stats
	Total   cache.Stats
}

// BuildCacheReport assembles a report from per-node stats (as returned by
// pfs.FileSystem.CacheStats). Returns nil when caching was disabled.
func BuildCacheReport(per []cache.Stats) *CacheReport {
	if len(per) == 0 {
		return nil
	}
	return &CacheReport{PerNode: per, Total: cache.Aggregate(per)}
}

// RenderCacheReport formats the report as a text section in the style of the
// other run-report sections.
func RenderCacheReport(r *CacheReport) string {
	if r == nil {
		return ""
	}
	t := r.Total
	var b strings.Builder
	fmt.Fprintf(&b, "Cache effectiveness:\n")
	fmt.Fprintf(&b, "  demand          %d hits / %d misses  (hit ratio %.1f%%)\n",
		t.Hits, t.Misses, 100*t.HitRatio())
	fmt.Fprintf(&b, "  bytes           %d from cache, %d fetched in %d array reads\n",
		t.HitBytes, t.MissBytes, t.Fetches)
	fmt.Fprintf(&b, "  prefetch        %d issued, %d used, %d wasted, %d aborted  (accuracy %.1f%%, %d delayed hits)\n",
		t.PrefetchIssued, t.PrefetchUsed, t.PrefetchWasted, t.PrefetchAborted,
		100*t.PrefetchAccuracy(), t.DelayedHits)
	fmt.Fprintf(&b, "  write-behind    %d dirty installs (%d B), %d flushes x %.1f blocks, %d write-through\n",
		t.DirtyInstalls, t.WriteBytes, t.Flushes, t.Coalescing(), t.WriteThrough)
	fmt.Fprintf(&b, "  eviction        %d total, %d dirty\n", t.Evictions, t.DirtyEvictions)
	if t.LostDirtyBlocks > 0 || t.OutageDrains > 0 {
		fmt.Fprintf(&b, "  outages         %d dirty blocks lost (%d B), %d graceful drains\n",
			t.LostDirtyBlocks, t.LostDirtyBytes, t.OutageDrains)
	}
	fmt.Fprintf(&b, "  streams         %d sequential, %d strided, %d random, %d unclassified\n",
		t.SeqStreams, t.StridedStreams, t.RandomStreams, t.UnknownStreams)
	if len(r.PerNode) > 1 {
		fmt.Fprintf(&b, "  per node:\n")
		fmt.Fprintf(&b, "  %6s %10s %10s %8s %10s %10s %8s\n",
			"node", "hits", "misses", "hit%", "pf used", "flushes", "coalesce")
		for _, s := range r.PerNode {
			fmt.Fprintf(&b, "  %6d %10d %10d %7.1f%% %10d %10d %8.1f\n",
				s.Node, s.Hits, s.Misses, 100*s.HitRatio(), s.PrefetchUsed,
				s.Flushes, s.Coalescing())
		}
	}
	return b.String()
}

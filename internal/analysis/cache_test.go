package analysis

import (
	"strings"
	"testing"

	"repro/internal/cache"
)

func TestBuildCacheReport(t *testing.T) {
	if BuildCacheReport(nil) != nil {
		t.Fatal("report from no stats")
	}
	per := []cache.Stats{
		{Node: 0, Hits: 6, Misses: 2, Flushes: 1, FlushedBlocks: 3},
		{Node: 1, Hits: 2, Misses: 2, PrefetchIssued: 4, PrefetchUsed: 3, PrefetchWasted: 1},
	}
	r := BuildCacheReport(per)
	if r.Total.Hits != 8 || r.Total.Misses != 4 || r.Total.Node != -1 {
		t.Fatalf("total %+v", r.Total)
	}
	out := RenderCacheReport(r)
	for _, want := range []string{
		"Cache effectiveness:", "8 hits / 4 misses", "hit ratio 66.7%",
		"accuracy 75.0%", "per node:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if RenderCacheReport(nil) != "" {
		t.Error("nil report rendered text")
	}
}

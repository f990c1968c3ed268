package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/cache"
)

func TestCachedRunDeterministic(t *testing.T) {
	run := func() string {
		s := SmallStudy(ESCAT)
		s.Machine.PFS.Cache = cache.DefaultConfig()
		r, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cache == nil {
			t.Fatal("cached study produced no cache report")
		}
		return analysis.RenderCacheReport(r.Cache) + r.Summary.Render("summary") +
			r.Wall.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical cached runs diverged:\n%s\nvs\n%s", a, b)
	}
}
